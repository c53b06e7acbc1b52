// Package stats collects per-table statistics from a storage.DB for the
// planner's cost model: cardinality, per-attribute distinct counts, average
// set-attribute cardinality, and — the figure that drives the paper's
// strategy choice — the dangling-tuple fraction of a join-attribute pair
// (the outer tuples Kim's transformation loses and the nest join must
// preserve).
//
// Tables at or below the catalog's exact threshold get exact statistics in
// one scan (distinct counts from full key sets, dangling fractions by exact
// anti-lookup). Larger tables switch to approximate summaries — equi-depth
// histograms per scalar attribute plus KMV distinct-count sketches (see
// histogram.go) — so per-attribute memory is O(buckets + k) instead of
// O(distinct) and dangling fractions are estimated from histogram overlap.
// Every table also carries histograms for the planner's equality/range
// selectivity estimates regardless of mode. Collection is lazy by default
// (New); Analyze is the eager ANALYZE entry point that scans every table up
// front. Staleness is per table and bounded, not zero: statistics remember
// the storage epoch they were collected at — their generation — and are
// recollected once the table has drifted from it by more than a tenth of its
// cardinality (see driftBound); Catalog.Refresh forces exactness. Mutating
// one table never touches the statistics of another.
package stats

import (
	"sort"
	"sync"

	"tmdb/internal/storage"
	"tmdb/internal/value"
)

// TableStats summarizes one extension table.
type TableStats struct {
	// Card is the stored cardinality.
	Card int
	// Distinct maps top-level attribute labels to their distinct-value count —
	// exact below the catalog's threshold, a KMV sketch estimate above it.
	Distinct map[string]int
	// AvgSetLen maps set-valued attribute labels to their mean cardinality —
	// the main driver of nest-join output size and μ fan-out.
	AvgSetLen map[string]float64
	// Hist maps scalar attribute labels to their equi-depth histograms, the
	// planner's source for equality/range selectivity and (on the approximate
	// path) dangling-fraction estimates.
	Hist map[string]*Histogram
	// Approx reports that Distinct is sketch-estimated and the exact key sets
	// were dropped (table larger than the catalog's exact threshold).
	Approx bool

	// Epoch is the storage epoch of the table at collection time — the
	// statistics generation. Everything derived from these statistics (cached
	// plans, dangling fractions, index depth profiles) is tagged with it and
	// goes stale when the catalog recollects (see driftBound).
	Epoch uint64

	// keys retains the distinct value keys per attribute so the catalog can
	// compute dangling fractions without rescanning this side. nil when
	// Approx.
	keys map[string]map[string]bool
}

// driftBound bounds statistics staleness: statistics collected at epoch e₀
// over n rows stay current while (epoch − e₀)·driftBound ≤ n. Every strategy
// and physical choice returns the same answer, so statistics only steer cost
// and need not be exact; under this bound each O(n) rescan is paid for by at
// least n/driftBound mutations, a tiny table still refreshes on every write,
// and a bulk load trips it at once.
const driftBound = 10

// current reports whether s may still stand in for its table, now at epoch:
// when nothing changed since collection and — unless exact is demanded —
// while the drift stays within the bound.
func (s *TableStats) current(epoch uint64, exact bool) bool {
	return epoch <= s.Epoch || !exact && (epoch-s.Epoch)*driftBound <= uint64(s.Card)
}

// Histogram returns the attribute's histogram, or nil when the attribute is
// unknown or not scalar.
func (s *TableStats) Histogram(attr string) *Histogram { return s.Hist[attr] }

// Selectivity estimates equi-predicate selectivity on the attribute: 1/NDV,
// defaulting to 0.1 when the attribute is unknown.
func (s *TableStats) Selectivity(attr string) float64 {
	if d, ok := s.Distinct[attr]; ok && d > 0 {
		return 1.0 / float64(d)
	}
	return 0.1
}

// Catalog caches statistics for every table of one database plus pairwise
// dangling-tuple fractions. It is safe for concurrent use: engines share one
// catalog across queries, and computed TableStats are immutable once
// published.
//
// Staleness is tracked per table through storage mutation epochs: statistics
// record the table's epoch at collection time, and a lookup against a table
// that has drifted past driftBound since recollects that table (and drops
// the dangling fractions involving it) lazily. Mutating one table therefore
// never discards the statistics of the others. The O(n) scans behind a miss
// run outside mu, one at a time per table or attribute pair (see claim), so
// recollecting one table never stalls lookups of another.
type Catalog struct {
	db *storage.DB

	mu       sync.Mutex
	tables   map[string]*TableStats
	dangling map[danglingKey]float64
	// indexDepth caches per-bucket depth profiles of index prefix levels,
	// tagged with the owning table's statistics generation (computing one
	// scans the level's bucket lengths; the cost model reads it per candidate
	// plan).
	indexDepth map[indexDepthKey]indexDepthEntry
	// inflight marks the scans in progress, keyed by table name or
	// danglingKey; the channel closes when the scan has published.
	inflight map[any]chan struct{}
	// exactThreshold is the cardinality at or below which a table keeps exact
	// statistics; above it the catalog stores histograms and sketches only.
	exactThreshold int
}

// indexDepthKey identifies one cached depth profile: table, canonical index
// name, and prefix depth.
type indexDepthKey struct {
	table, index string
	depth        int
}

// indexDepthEntry tags a cached profile with the statistics generation it
// was computed under; a differing current generation recomputes.
type indexDepthEntry struct {
	epoch   uint64
	profile storage.DepthProfile
}

// danglingKey identifies one cached dangling fraction by its attribute pair;
// a struct key (rather than a formatted string) lets invalidation match
// either side's table by field.
type danglingKey struct {
	lTable, lAttr, rTable, rAttr string
}

// DefaultExactThreshold is the cardinality up to which per-table statistics
// stay exact. Above it the catalog switches to equi-depth histograms and KMV
// sketches.
const DefaultExactThreshold = 1024

// New returns a lazy catalog over db: each table is scanned on first use.
func New(db *storage.DB) *Catalog {
	return &Catalog{
		db:             db,
		tables:         make(map[string]*TableStats),
		dangling:       make(map[danglingKey]float64),
		indexDepth:     make(map[indexDepthKey]indexDepthEntry),
		inflight:       make(map[any]chan struct{}),
		exactThreshold: DefaultExactThreshold,
	}
}

// Analyze is the eager ANALYZE entry point: it scans every table of db and
// returns the fully populated catalog.
func Analyze(db *storage.DB) *Catalog {
	c := New(db)
	if db != nil {
		for _, name := range db.Names() {
			c.Table(name)
		}
	}
	return c
}

// Names returns the names of all analyzed tables, sorted.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table returns statistics for the named table, computing and caching them
// on first use and recollecting them lazily once the table has drifted past
// driftBound since. Unknown tables yield zero statistics.
func (c *Catalog) Table(name string) *TableStats { return c.lookup(name, false) }

// Refresh is Table demanding exactness: the table is rescanned if it has
// mutated at all since its statistics were collected — ANALYZE for one table.
func (c *Catalog) Refresh(name string) *TableStats { return c.lookup(name, true) }

// claim makes the scan behind a cache miss single-flight. Called with mu
// held. It reports true when the caller now owns key: mu stays held, and the
// caller must scan (outside mu), publish, and release(key). Otherwise another
// goroutine owns it: claim unlocks mu, waits for that scan to publish, and
// reports false — the caller locks again and re-reads the cache.
func (c *Catalog) claim(key any) bool {
	done, busy := c.inflight[key]
	if !busy {
		c.inflight[key] = make(chan struct{})
		return true
	}
	c.mu.Unlock()
	<-done
	return false
}

// release ends the caller's ownership of key and wakes its waiters.
func (c *Catalog) release(key any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.inflight[key])
	delete(c.inflight, key)
}

// MarkStale drops the cached statistics for one table and every dangling
// fraction involving it; the next lookup recollects. Epoch tracking makes
// this automatic for storage-backed tables — MarkStale exists for dropped
// tables, whose figures have no backing epoch to compare against.
func (c *Catalog) MarkStale(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evict(name)
}

// evict removes the table's stats and associated dangling fractions. Caller
// holds the lock.
func (c *Catalog) evict(name string) {
	delete(c.tables, name)
	for k := range c.dangling {
		if k.lTable == name || k.rTable == name {
			delete(c.dangling, k)
		}
	}
}

// Indexes enumerates the live persistent indexes of a table as ordered
// attribute lists — the costing-side oracle behind the planner's index-probe
// and index-scan matchers. Nil without storage backing or while the table is
// unsealed.
func (c *Catalog) Indexes(table string) [][]string {
	if c.db == nil {
		return nil
	}
	tab, ok := c.db.Table(table)
	if !ok {
		return nil
	}
	return tab.Indexes()
}

// IndexDepth returns the per-bucket depth profile of the index's prefix
// level — distinct prefixes, total rows, average and maximum bucket size —
// the figures driving the planner's index-scan probe cost. Profiles are
// cached per statistics generation, so the O(distinct-prefixes) bucket scan
// is paid once per generation, not per query or per mutation.
func (c *Catalog) IndexDepth(table string, attrs []string, depth int) (storage.DepthProfile, bool) {
	if c.db == nil {
		return storage.DepthProfile{}, false
	}
	tab, ok := c.db.Table(table)
	if !ok {
		return storage.DepthProfile{}, false
	}
	ix, ok := tab.IndexOn(attrs)
	if !ok {
		return storage.DepthProfile{}, false
	}
	key := indexDepthKey{table: table, index: ix.Name(), depth: depth}
	epoch := c.Table(table).Epoch
	c.mu.Lock()
	if e, ok := c.indexDepth[key]; ok && e.epoch == epoch {
		c.mu.Unlock()
		return e.profile, true
	}
	c.mu.Unlock()
	prof, ok := ix.Profile(depth)
	if !ok {
		return storage.DepthProfile{}, false
	}
	c.mu.Lock()
	c.indexDepth[key] = indexDepthEntry{epoch: epoch, profile: prof}
	c.mu.Unlock()
	return prof, true
}

// lookup returns the cached statistics while they are current and otherwise
// collects a new generation — outside mu, so only lookups of this table wait.
func (c *Catalog) lookup(name string, exact bool) *TableStats {
	var tab *storage.Table
	if c.db != nil {
		tab, _ = c.db.Table(name)
	}
	for {
		var epoch uint64
		if tab != nil {
			epoch = tab.Epoch()
		}
		c.mu.Lock()
		if s, ok := c.tables[name]; ok && (tab == nil || s.current(epoch, exact)) {
			c.mu.Unlock()
			return s
		}
		if c.claim(name) {
			break
		}
	}
	threshold := c.exactThreshold
	c.mu.Unlock()
	defer c.release(name)
	s := collect(tab, threshold)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evict(name)
	c.tables[name] = s
	return s
}

// collect scans tab once into a new statistics generation (zero statistics
// for a nil table), exact at or below the threshold.
func collect(tab *storage.Table, exactThreshold int) *TableStats {
	s := &TableStats{
		Distinct:  make(map[string]int),
		AvgSetLen: make(map[string]float64),
		Hist:      make(map[string]*Histogram),
		keys:      make(map[string]map[string]bool),
	}
	if tab == nil {
		return s
	}
	// Epoch before rows: a write landing in between makes the rows newer than
	// the generation claims, which only brings the next recollection forward.
	s.Epoch = tab.Epoch()
	rows := tab.Rows()
	s.Card = len(rows)
	s.Approx = s.Card > exactThreshold
	setLen := make(map[string]int)
	setCnt := make(map[string]int)
	scalars := make(map[string][]value.Value)
	// Histogram collection memory is bounded: above the cap only every
	// stride-th row feeds the histograms (sketches and set counters still see
	// every row). Row order is insertion order, uncorrelated with attribute
	// values, so the stride behaves as a uniform sample; all histogram
	// figures are fractions of Total and stay scale-free.
	stride := 1
	if s.Card > histogramSampleCap {
		stride = (s.Card + histogramSampleCap - 1) / histogramSampleCap
	}
	var sketches map[string]*distinctSketch
	if s.Approx {
		s.keys = nil
		sketches = make(map[string]*distinctSketch)
	}
	for i, r := range rows {
		if r.Kind() != value.KindTuple {
			continue
		}
		sampled := i%stride == 0
		for _, f := range r.Fields() {
			if s.Approx {
				sk, ok := sketches[f.Label]
				if !ok {
					sk = newDistinctSketch(sketchK)
					sketches[f.Label] = sk
				}
				sk.Add(value.Key(f.V))
			} else {
				m, ok := s.keys[f.Label]
				if !ok {
					m = make(map[string]bool)
					s.keys[f.Label] = m
				}
				m[value.Key(f.V)] = true
			}
			switch f.V.Kind() {
			case value.KindSet:
				setLen[f.Label] += f.V.Len()
				setCnt[f.Label]++
			case value.KindTuple, value.KindList:
				// not histogrammed
			default:
				if sampled {
					scalars[f.Label] = append(scalars[f.Label], f.V)
				}
			}
		}
	}
	if s.Approx {
		for l, sk := range sketches {
			s.Distinct[l] = sk.Estimate()
		}
	} else {
		for l, m := range s.keys {
			s.Distinct[l] = len(m)
		}
	}
	for l, vals := range scalars {
		if h := buildHistogram(vals, defaultBuckets); h != nil {
			s.Hist[l] = h
		}
	}
	for l, n := range setCnt {
		if n > 0 {
			s.AvgSetLen[l] = float64(setLen[l]) / float64(n)
		}
	}
	return s
}

// Selectivity estimates equi-predicate selectivity of attr on table.
func (c *Catalog) Selectivity(table, attr string) float64 {
	return c.Table(table).Selectivity(attr)
}

// DanglingFrac returns the fraction of lTable rows whose lAttr value matches
// no rAttr value of rTable — the tuples a semijoin drops, an antijoin keeps,
// and a nest join pairs with ∅. The result is cached per attribute pair.
// Below the exact threshold the figure is exact (anti-lookup of every left
// key against the right key set); above it, it is estimated from the two
// attribute histograms by bucket overlap. When either side is unknown the
// conventional default 0.5 is returned.
func (c *Catalog) DanglingFrac(lTable, lAttr, rTable, rAttr string) float64 {
	key := danglingKey{lTable, lAttr, rTable, rAttr}
	// Freshness first: looking up either side recollects it if it drifted
	// past the bound, which also sweeps the dangling entries involving it —
	// so a cached fraction always belongs to the current generations.
	ls, rs := c.Table(lTable), c.Table(rTable)
	for {
		c.mu.Lock()
		if f, ok := c.dangling[key]; ok {
			c.mu.Unlock()
			return f
		}
		if c.claim(key) {
			break
		}
	}
	c.mu.Unlock()
	defer c.release(key)
	frac := c.danglingFrac(ls, rs, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Publish only into the generations the fraction was computed from.
	if c.tables[lTable] == ls && c.tables[rTable] == rs {
		c.dangling[key] = frac
	}
	return frac
}

// danglingFrac computes one dangling fraction from the two sides' statistics,
// scanning the left table on the exact path. Called without mu.
func (c *Catalog) danglingFrac(ls, rs *TableStats, key danglingKey) float64 {
	const def = 0.5
	if c.db == nil || ls.Card == 0 {
		return def
	}
	rKeys := rs.keys[key.rAttr]
	if rKeys == nil {
		// Approximate path: estimate from histogram overlap.
		if frac := estimateDangling(ls.Hist[key.lAttr], rs.Hist[key.rAttr]); frac >= 0 {
			return frac
		}
		return def
	}
	tab, ok := c.db.Table(key.lTable)
	if !ok {
		return def
	}
	dangling, n := 0, 0
	for _, r := range tab.Rows() {
		if r.Kind() != value.KindTuple {
			continue
		}
		n++
		f, ok := r.Get(key.lAttr)
		if !ok || !rKeys[value.Key(f)] {
			dangling++
		}
	}
	if n == 0 {
		return def
	}
	return float64(dangling) / float64(n)
}

// estimateDangling estimates the dangling fraction of the left attribute
// against the right from their histograms: per left bucket, the match
// probability is the containment assumption min(1, |R distinct in bucket
// range| / |bucket distinct|), so left values falling outside the right
// side's populated ranges count as dangling. Reports -1 when either
// histogram is missing.
func estimateDangling(lh, rh *Histogram) float64 {
	if lh == nil || lh.Total == 0 || rh == nil {
		return -1
	}
	dangling := 0.0
	for _, b := range lh.Buckets {
		rDistinct := rh.DistinctInRange(b.Lo, b.Hi)
		match := 1.0
		if b.Distinct > 0 {
			match = rDistinct / float64(b.Distinct)
			if match > 1 {
				match = 1
			}
		}
		dangling += float64(b.Count) * (1 - match)
	}
	return dangling / float64(lh.Total)
}
