// Package storage provides the in-memory storage substrate: extension tables
// of complex-object tuples and equi-key hash indexes (per-table statistics
// live in internal/stats). TM sets are duplicate-free, so a table is a set of
// tuples, held in canonical order from its creation on.
//
// Tables are mutable: Load replaces every row at once (sorting and
// deduplicating a copy, O(n log n)), and Insert, Delete and DeleteRows change
// one or a few rows. Every mutation advances the table's data epoch, a
// monotonic counter; the statistics catalog measures how far a table has
// drifted from its last collection by it.
//
// The rows are held as a chunked canonical sequence: sorted chunks of at most
// ChunkRows rows under a small directory. A write copies only the chunks it
// touches and the directory (Insert splits a full chunk in half, a row past
// the last one starts a chunk of its own once the last chunk is half full,
// and a chunk left empty is dropped); every other chunk is shared with the
// snapshots taken before it. Chunks are never merged, so deletes can leave small ones until
// the next Load recarves the table.
//
// The canonical order is used twice over. Writes find their chunk and row by
// binary search. And since every row of a tuple-typed table carries exactly
// its type's labels, the rows are sorted on their first field: a scan whose
// selection compares that field with constants reads only the run of the
// chunks in the range (KeyRange.Cut), and the executor collects a scan's
// rows, and those of operators that keep their order, without sorting them.
//
// Concurrency: readers (scans, set views, index lookups) may run concurrently
// with mutators. A mutation never edits a chunk or a directory: it builds a
// new snapshot, so a snapshot taken by an open scan stays immutable while
// later mutations build new ones.
//
// Each snapshot carries a memo (Snapshot): a small cache, opaque to storage,
// in which consumers keep what they derive from exactly those rows. Every
// mutation that replaces the rows starts a fresh memo, so an entry is dropped
// with its snapshot and never maintained.
package storage

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Table is one class extension: a duplicate-free collection of tuples of a
// fixed element type.
type Table struct {
	name string
	elem *types.Type

	mu sync.RWMutex
	// snap is the current rows with their memo. A mutation replaces it and
	// never edits it.
	snap *snapshot
	// epoch counts mutations (see Epoch).
	epoch uint64
	// indexes maps a canonical index name (IndexName of the ordered attribute
	// list; a bare attribute for single-attribute indexes) to its persistent
	// hash index, rebuilt by Load and maintained incrementally by the other
	// mutations. indexList is their attribute lists sorted by name, rebuilt
	// whenever an index is created or dropped (listIndexesLocked).
	indexes   map[string]*HashIndex
	indexList [][]string
}

// snapshot is one immutable state of a table: its rows, the memo that
// belongs to exactly those rows, and the contiguous set view (set by Load,
// or materialized by AsSet at most once).
type snapshot struct {
	rows chunked
	memo *Memo
	once sync.Once
	set  value.Value
}

// newSnapshot returns a snapshot of rows with a fresh memo.
func newSnapshot(rows chunked) *snapshot { return &snapshot{rows: rows, memo: newMemo()} }

// NewTable creates an empty table for elements of the given tuple type. The
// element type is mandatory: a nil elem would silently disable Insert's
// typechecking (use db.Create for the error-returning form).
func NewTable(name string, elem *types.Type) *Table {
	if elem == nil {
		panic(fmt.Sprintf("storage: table %s created with nil element type", name))
	}
	return &Table{name: name, elem: elem, snap: newSnapshot(chunked{})}
}

// Epoch returns the table's mutation epoch: a monotonically increasing
// counter advanced once by every Insert, Delete and DeleteRows that changes
// the rows, and by Load once per row added or removed (at least once).
// Consumers caching anything derived from the table's contents record the
// epoch at derivation time; the difference to the current epoch is the number
// of rows changed since.
func (t *Table) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// Load replaces the table's rows with the set of the given ones, after
// typechecking every one of them: an ill-typed row fails the load and leaves
// the table as it was. The rows are sorted into canonical order and
// deduplicated on a copy, which is then cut into full chunks without a second
// copy, so neither the caller's slice nor a snapshot handed out before is
// touched; the new rows get a fresh memo, and every registered index is
// rebuilt over them.
func (t *Table) Load(rows []value.Value) error {
	for _, r := range rows {
		if err := t.check(r); err != nil {
			return err
		}
	}
	out := slices.Clone(rows)
	slices.SortFunc(out, value.Compare)
	out = slices.CompactFunc(out, value.Equal)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch += max(1, changed(t.snap.rows, out))
	snap := newSnapshot(carve(out))
	snap.once.Do(func() { snap.set = value.CanonicalSet(out) })
	t.snap = snap
	for name, ix := range t.indexes {
		t.indexes[name] = t.buildIndexLocked(ix.Attrs())
	}
	return nil
}

// changed counts the rows in exactly one of two canonical row lists: those a
// load from a to b adds plus those it removes.
func changed(a chunked, b []value.Value) uint64 {
	common, j := 0, 0
	for _, r := range a.all() {
		for ; j < len(b); j++ {
			if c := value.Compare(b[j], r); c >= 0 {
				if c == 0 {
					common, j = common+1, j+1
				}
				break
			}
		}
	}
	return uint64(a.n + len(b) - 2*common)
}

// check reports a value that does not conform to the element type.
func (t *Table) check(v value.Value) error {
	if !types.Check(v, t.elem) {
		return fmt.Errorf("storage: value %s does not conform to %s element type %s", v, t.name, t.elem)
	}
	return nil
}

// Insert inserts one tuple after typechecking it, maintaining the canonical
// duplicate-free row order and every registered index incrementally. It
// reports whether the tuple was actually added (false for a duplicate: set
// semantics make duplicate insertion a no-op). Only the chunk that receives
// the tuple and the directory are copied, so open scans keep a consistent
// snapshot.
func (t *Table) Insert(v value.Value) (bool, error) {
	if err := t.check(v); err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, found := t.snap.rows.find(v, pos{})
	if found {
		return false, nil // already present
	}
	t.advanceLocked(t.snap.rows.insert(p, v))
	for _, ix := range t.indexes {
		if !ix.Add(v) {
			// The value typechecked, so a registered attribute must exist;
			// treat a miss as corruption rather than silently skipping.
			return true, errMissingAttr(t.name, v, ix.Attrs())
		}
	}
	return true, nil
}

// Delete removes one tuple (by value equality), maintaining row order and
// indexes. It reports whether the tuple was present.
func (t *Table) Delete(v value.Value) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, found := t.snap.rows.find(v, pos{})
	if !found {
		return false, nil
	}
	t.removeRowsLocked([]pos{p})
	return true, nil
}

// DeleteRows removes every listed tuple (by value equality) in one batch —
// the entry point for callers that computed the victim set from a snapshot
// (e.g. by evaluating a predicate that may itself read this table, which must
// not run under the table's lock). Returns the number of tuples actually
// present and removed. Victims in canonical order (a query result's element
// order) are located by a search over chunks and rows that only ever moves
// forward; any other order costs one full search per victim.
func (t *Table) DeleteRows(vs []value.Value) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	victims := make([]pos, 0, len(vs))
	var at pos
	for k, v := range vs {
		if k > 0 && !value.Less(vs[k-1], v) {
			at = pos{}
		}
		p, found := t.snap.rows.find(v, at)
		if at = p; found {
			victims = append(victims, p)
		}
	}
	if !slices.IsSortedFunc(victims, comparePos) {
		slices.SortFunc(victims, comparePos)
	}
	victims = slices.Compact(victims)
	t.removeRowsLocked(victims)
	return len(victims), nil
}

// comparePos orders positions by chunk, then by offset.
func comparePos(a, b pos) int {
	if a.c != b.c {
		return a.c - b.c
	}
	return a.i - b.i
}

// removeRowsLocked drops the rows at the given strictly ascending positions:
// the chunks holding them are copied without them, the victims leave every
// index, and the epoch advances. No victims, no mutation. Caller holds the
// write lock.
func (t *Table) removeRowsLocked(victims []pos) {
	if len(victims) == 0 {
		return
	}
	rows := t.snap.rows
	for _, p := range victims {
		for _, ix := range t.indexes {
			ix.Remove(rows.chunks[p.c][p.i])
		}
	}
	t.advanceLocked(rows.remove(victims))
}

// advanceLocked records a mutation: the epoch advances and the new rows get
// a fresh snapshot and memo. Caller holds the write lock.
func (t *Table) advanceLocked(rows chunked) {
	t.epoch++
	t.snap = newSnapshot(rows)
}

// Len returns the current row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.snap.rows.n
}

// current returns the current snapshot.
func (t *Table) current() *snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.snap
}

// Rows iterates over one snapshot of the rows, taken when Rows is called, in
// canonical order, yielding each row with its position.
func (t *Table) Rows() iter.Seq2[int, value.Value] { return t.current().rows.all() }

// Snapshot returns the current rows as their chunk directory — non-empty
// chunks in canonical order, each at most ChunkRows rows, none of them ever
// modified — together with the memo that belongs to exactly those rows:
// whatever a consumer stores there was derived from this snapshot and is
// served only with it.
func (t *Table) Snapshot() ([][]value.Value, *Memo) {
	s := t.current()
	return s.rows.chunks, s.memo
}

// MemoEntries is the most entries one snapshot's memo keeps. Entries are
// whole derived structures (a hash join's build over the snapshot, a nest
// join's groups), so the cap bounds a table's memo at a small multiple of
// its snapshot's size.
const MemoEntries = 16

// Memo is the per-snapshot cache of a table: entries derived from
// one row snapshot, keyed by what they were derived with. Storage never
// reads an entry; it only starts a fresh memo whenever the rows change. A
// stored entry must be immutable: concurrent queries on the snapshot share
// it. Safe for concurrent use.
type Memo struct {
	id      uint64
	mu      sync.Mutex
	entries map[string]any
}

// memoIDs numbers the memos of every table of the process.
var memoIDs atomic.Uint64

// newMemo returns an empty memo numbered after every memo before it.
func newMemo() *Memo { return &Memo{id: memoIDs.Add(1)} }

// ID returns the memo's number, unique in the process and larger than that
// of every memo created before it: it names the snapshot the memo belongs
// to, so an entry derived from several snapshots can be keyed by all of
// them and kept in the newest one's memo. Unlike a table's epoch, it never
// repeats when a table is dropped and created again.
func (m *Memo) ID() uint64 { return m.id }

// Load returns the entry stored under key.
func (m *Memo) Load(key string) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.entries[key]
	return v, ok
}

// Store offers v under key and returns the entry served under key from now
// on, and whether the memo keeps it. The first store wins: if an entry is
// already there, that entry is returned. A memo that already holds
// MemoEntries entries keeps nothing more, and v comes back unkept.
func (m *Memo) Store(key string, v any) (served any, kept bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[key]; ok {
		return old, true
	}
	if len(m.entries) >= MemoEntries {
		return v, false
	}
	if m.entries == nil {
		m.entries = make(map[string]any)
	}
	m.entries[key] = v
	return v, true
}

// AsSet returns the table contents as a TM set value (used by the naive
// evaluator, where a table reference is simply a set-valued constant). A set
// is one contiguous slice: a loaded snapshot's view is the slice Load carved
// its chunks from, and a snapshot made by a write materializes its view from
// the chunks on first use and keeps it.
func (t *Table) AsSet() value.Value {
	s := t.current()
	s.once.Do(func() { s.set = value.CanonicalSet(slices.Concat(s.rows.chunks...)) })
	return s.set
}

// --- Per-table index registry ---

// CreateIndex registers and builds a persistent hash index on the given
// ordered list of top-level attributes. A single attribute gives the classic
// equi-key index; multiple attributes give a composite index whose every
// non-empty prefix is probeable (see HashIndex). The index is rebuilt by
// every Load and maintained incrementally by Insert/Delete/DeleteRows.
// Creating an index that already exists is a no-op.
func (t *Table) CreateIndex(attrs ...string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(attrs) == 0 {
		return fmt.Errorf("storage: cannot index %s: no attributes given", t.name)
	}
	if t.elem.Kind != types.KTuple {
		return fmt.Errorf("storage: cannot index %s: element type %s is not a tuple", t.name, t.elem)
	}
	seen := make(map[string]bool, len(attrs))
	for _, attr := range attrs {
		if _, ok := t.elem.Field(attr); !ok {
			return fmt.Errorf("storage: cannot index %s: no attribute %s in element type %s", t.name, attr, t.elem)
		}
		if seen[attr] {
			return fmt.Errorf("storage: cannot index %s: duplicate attribute %s", t.name, attr)
		}
		seen[attr] = true
	}
	if t.indexes == nil {
		t.indexes = make(map[string]*HashIndex)
	}
	name := IndexName(attrs)
	if _, dup := t.indexes[name]; dup {
		return nil
	}
	t.indexes[name] = t.buildIndexLocked(attrs)
	t.listIndexesLocked()
	return nil
}

// DropIndex unregisters the index on the given ordered attribute list,
// reporting whether it existed. The data is unchanged, so the epoch does not
// advance. An in-flight query that already fetched the *HashIndex keeps
// probing its snapshot — buckets are copy-on-write — while subsequent IndexOn
// lookups miss, so a plan that names the index resolves again without it
// when it is next compiled.
func (t *Table) DropIndex(attrs ...string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(attrs) == 0 {
		return false
	}
	name := IndexName(attrs)
	if _, ok := t.indexes[name]; !ok {
		return false
	}
	delete(t.indexes, name)
	t.listIndexesLocked()
	return true
}

// buildIndexLocked builds a fresh index over the current rows. Caller holds
// the write lock; attribute existence was validated by CreateIndex.
func (t *Table) buildIndexLocked(attrs []string) *HashIndex {
	ix := NewHashIndex(attrs...)
	for _, r := range t.snap.rows.all() {
		ix.Add(r)
	}
	return ix
}

// errMissingAttr reports an index-maintenance failure: a typechecked row
// missing a registered index attribute indicates corruption.
func errMissingAttr(table string, row value.Value, attrs []string) error {
	return fmt.Errorf("storage: maintaining index %s(%s): row %s lacks an indexed attribute",
		table, IndexName(attrs), row)
}

// IndexOn returns the index on exactly the given ordered attribute list,
// found without building its name.
func (t *Table) IndexOn(attrs []string) (*HashIndex, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if slices.Equal(ix.attrs, attrs) {
			return ix, true
		}
	}
	return nil, false
}

// Indexes returns the attribute lists of the registered indexes, sorted by
// canonical name — the planner's index enumeration oracle. The lists are
// shared and must not be modified.
func (t *Table) Indexes() [][]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexList
}

// listIndexesLocked rebuilds indexList from the registry. Caller holds the
// write lock.
func (t *Table) listIndexesLocked() {
	t.indexList = nil
	for _, name := range slices.Sorted(maps.Keys(t.indexes)) {
		t.indexList = append(t.indexList, t.indexes[name].Attrs())
	}
}

// DB is a collection of extension tables addressed by extension name. It is
// safe for concurrent use: the table registry is lock-protected, so creating
// a table races neither lookups nor other creations (each Table guards its
// own contents separately).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// Create creates and registers a new empty table. A nil element type is
// rejected: it would silently disable Insert's typechecking.
func (db *DB) Create(name string, elem *types.Type) (*Table, error) {
	if elem == nil {
		return nil, fmt.Errorf("storage: table %s needs an element type (nil would skip typechecking)", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("storage: table %s already exists", name)
	}
	t := NewTable(name, elem)
	db.tables[name] = t
	return t, nil
}

// MustCreate creates a table and panics on duplicates; for tests/generators.
func (db *DB) MustCreate(name string, elem *types.Type) *Table {
	t, err := db.Create(name, elem)
	if err != nil {
		panic(err)
	}
	return t
}

// Drop unregisters the table, reporting whether it existed. In-flight
// readers holding row snapshots (or the *Table itself) are unaffected —
// snapshots are immutable — but subsequent lookups miss, which the engine
// surfaces as a typed dropped-table error.
func (db *DB) Drop(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return false
	}
	delete(db.tables, name)
	return true
}

// Table returns the table with the given extension name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// CreateIndex registers a persistent hash index on the table's ordered
// attribute list (see Table.CreateIndex).
func (db *DB) CreateIndex(table string, attrs ...string) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("storage: unknown table %s", table)
	}
	return t.CreateIndex(attrs...)
}

// DropIndex unregisters the index on the table's ordered attribute list,
// reporting whether it existed (see Table.DropIndex).
func (db *DB) DropIndex(table string, attrs ...string) (bool, error) {
	t, ok := db.Table(table)
	if !ok {
		return false, fmt.Errorf("storage: unknown table %s", table)
	}
	return t.DropIndex(attrs...), nil
}

// Names returns all table names, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
