package engine

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"

	"tmdb/internal/planner"
	"tmdb/internal/tmql"
)

// planCache memoizes physical planning decisions per engine: the key is the
// bound query (canonically formatted) plus every option that can change the
// outcome plus the mutation-epoch vector of the referenced tables, and the
// value is the fully resolved planned decision — chosen strategy, logical
// alternative, join family, parallelism degree, plan, cost, and the
// candidate table for EXPLAIN. Repeated queries therefore skip translation,
// alternative generation, and costing entirely. Entries are treated as
// immutable after insertion.
//
// Invalidation is per table, in two layers. The epoch vector in the key
// makes entries self-invalidating: mutating a table advances its epoch, so
// the next lookup of any query touching it builds a different key and
// replans (an "epoch mismatch"), while queries over untouched tables keep
// hitting. On top of that, invalidateTable proactively sweeps the entries
// referencing a table — the engine calls it from its mutation entry points
// so stale decisions don't linger in the LRU, and from CreateIndex, where
// the data (and hence the epoch) is unchanged but new physical candidates
// exist. Analyze no longer touches the cache at all: statistics are
// epoch-tracked per table, so a cached plan and its statistics can only go
// stale together.
//
// The cache is bounded: at most capacity entries are kept and the least
// recently used entry is evicted on overflow, so long-running engines serving
// many distinct queries hold planning memory constant.
type planCache struct {
	mu            sync.Mutex
	capacity      int
	entries       map[string]*list.Element
	order         *list.List // front = most recently used
	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
}

// DefaultPlanCacheCapacity bounds the plan cache unless overridden with
// Engine.SetPlanCacheCapacity.
const DefaultPlanCacheCapacity = 256

// cacheEntry is one LRU node. tables records which extensions the plan
// reads, so invalidateTable can sweep by table without parsing keys.
type cacheEntry struct {
	key    string
	tables []string
	pl     *planned
}

func newPlanCache() *planCache {
	return &planCache{
		capacity: DefaultPlanCacheCapacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// cacheKey builds the memoization key for a bound query under the given
// options, the physical pin they resolve to, and the epoch vector of the
// tables the query references (names sorted, so the rendering is
// deterministic). The epoch vector makes entries self-invalidating under
// mutation.
func cacheKey(bound tmql.Expr, opts Options, pin planner.PhysicalSpec, tables []string, epochs map[string]uint64) string {
	var ev strings.Builder
	for _, t := range tables {
		fmt.Fprintf(&ev, "%s:%d,", t, epochs[t])
	}
	return fmt.Sprintf("s=%d|j=%d|a=%d|p=%d|b=%d|pin=%s|e=%s|%s",
		opts.Strategy, pin.Joins, pin.Access, pin.Degree, pin.Batch, opts.PinAlt, ev.String(), tmql.Format(bound))
}

func (c *planCache) get(key string) (*planned, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).pl, true
}

func (c *planCache) put(key string, tables []string, pl *planned) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).pl = pl
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, tables: tables, pl: pl})
	for c.capacity > 0 && len(c.entries) > c.capacity {
		last := c.order.Back()
		if last == nil {
			break
		}
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// setCapacity bounds the cache to n entries (n <= 0 restores the default),
// evicting immediately if the cache is over the new bound.
func (c *planCache) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		n = DefaultPlanCacheCapacity
	}
	c.capacity = n
	for len(c.entries) > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element)
	c.order.Init()
}

// invalidateTable drops every cached decision whose plan reads the named
// table — and only those — returning how many were dropped. The epoch vector
// in the keys already prevents stale hits; the sweep reclaims the memory and
// covers mutations that do not advance the epoch (index creation).
func (c *planCache) invalidateTable(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ce := el.Value.(*cacheEntry)
		if sliceContains(ce.tables, name) {
			c.order.Remove(el)
			delete(c.entries, ce.key)
			dropped++
			c.invalidations++
		}
		el = next
	}
	return dropped
}

// sliceContains reports membership in a sorted table-name slice.
func sliceContains(ss []string, s string) bool {
	i := sort.SearchStrings(ss, s)
	return i < len(ss) && ss[i] == s
}

// CacheStats reports plan-cache effectiveness.
type CacheStats struct {
	// Entries is the number of memoized plans; Capacity the LRU bound.
	Entries, Capacity int
	// Hits and Misses count lookups since the engine was created (clearing
	// the cache does not reset them). Evictions counts LRU displacements —
	// a high rate signals the capacity is too small for the query mix.
	Hits, Misses, Evictions uint64
	// Invalidations counts entries dropped by per-table invalidation
	// (mutations and index creation on the tables they reference).
	Invalidations uint64
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       len(c.entries),
		Capacity:      c.capacity,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}

// String renders the stats for the REPL's \cache command.
func (s CacheStats) String() string {
	return fmt.Sprintf("plan cache: %d/%d entries, %d hits, %d misses, %d evictions, %d invalidations",
		s.Entries, s.Capacity, s.Hits, s.Misses, s.Evictions, s.Invalidations)
}
