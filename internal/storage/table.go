// Package storage provides the in-memory storage substrate: extension tables
// of complex-object tuples and equi-key hash indexes (per-table statistics
// live in internal/stats). TM sets are duplicate-free, so a table is
// a set of tuples; Insert enforces this lazily (deduplication happens on
// Seal, giving O(n log n) bulk loads instead of per-insert probes).
//
// Tables are mutable. The lifecycle is: bulk-load with Insert, Seal once, and
// from then on either mutate in place with InsertSealed/Delete/DeleteRows or
// run an Unseal → bulk Insert → Seal cycle. Every mutation advances the
// table's data epoch, a monotonic counter; the statistics catalog measures
// how far a table has drifted from its last collection by it.
//
// Concurrency: readers (scans, set views, index lookups) may run concurrently
// with mutators. Sealed-table mutations replace the row slice (copy-on-write:
// one O(n) copy per write, no sort) instead of editing it, and the set view
// is that same slice, so a snapshot taken by an open scan stays immutable
// while later mutations build new ones.
//
// Each sealed snapshot carries a memo (Snapshot): a small cache, opaque to
// storage, in which consumers keep what they derive from exactly those rows.
// Every mutation that replaces the rows starts a fresh memo, so an entry is
// dropped with its snapshot and never maintained.
package storage

import (
	"fmt"
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
	// rows is in canonical order and duplicate-free while sealed, and then
	// never modified in place: AsSet aliases it.
	rows   []value.Value
	sealed bool
	// epoch counts mutations (inserts, deletes, seal/unseal transitions).
	epoch uint64
	// memo belongs to the current sealed rows; nil while unsealed. Every
	// mutation replaces it (advanceLocked) rather than clearing it.
	memo *Memo
	// indexes maps a canonical index name (IndexName of the ordered attribute
	// list; a bare attribute for single-attribute indexes) to its persistent
	// hash index, rebuilt on Seal and maintained incrementally by sealed
	// mutations.
	indexes map[string]*HashIndex
}

// NewTable creates an empty table for elements of the given tuple type. The
// element type is mandatory: a nil elem would silently disable Insert's
// typechecking (use db.Create for the error-returning form).
func NewTable(name string, elem *types.Type) *Table {
	if elem == nil {
		panic(fmt.Sprintf("storage: table %s created with nil element type", name))
	}
	return &Table{name: name, elem: elem}
}

// Name returns the extension name.
func (t *Table) Name() string { return t.name }

// Epoch returns the table's mutation epoch: a monotonically increasing
// counter advanced by every successful Insert, InsertSealed, Delete,
// DeleteRows, Seal, and Unseal. Consumers caching anything derived from the
// table's contents record the epoch at derivation time; the difference to
// the current epoch is the number of mutations since.
func (t *Table) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// Sealed reports whether the table is sealed (deduplicated, sorted, and
// serving a cached set view and live indexes).
func (t *Table) Sealed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealed
}

// Insert appends a tuple after typechecking it — the bulk-load path. It is
// only valid before Seal (or between Unseal and the next Seal); use
// InsertSealed to mutate a sealed table in place.
func (t *Table) Insert(v value.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return fmt.Errorf("storage: table %s is sealed (use InsertSealed or Unseal)", t.name)
	}
	if !types.Check(v, t.elem) {
		return fmt.Errorf("storage: value %s does not conform to %s element type %s", v, t.name, t.elem)
	}
	t.rows = append(t.rows, v)
	t.advanceLocked()
	return nil
}

// MustInsert inserts and panics on type errors; for tests and generators.
func (t *Table) MustInsert(v value.Value) {
	if err := t.Insert(v); err != nil {
		panic(err)
	}
}

// Seal deduplicates (set semantics), sorts into the canonical order, freezes
// the bulk-load path, and (re)builds every registered index.
//
// Sorting and deduplication work on a fresh copy of the row slice: a snapshot
// handed out by Rows before this Seal (e.g. to a query running concurrently
// with an Unseal → bulk-load → Seal cycle) shares the old backing array, and
// reordering it in place would tear that reader's view.
func (t *Table) Seal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return
	}
	rows := append(make([]value.Value, 0, len(t.rows)), t.rows...)
	slices.SortFunc(rows, value.Compare)
	out := rows[:0]
	for i, r := range rows {
		if i == 0 || !value.Equal(r, out[len(out)-1]) {
			out = append(out, r)
		}
	}
	t.rows = out
	t.sealed = true
	t.advanceLocked()
	for name, ix := range t.indexes {
		t.indexes[name] = t.buildIndexLocked(ix.Attrs())
	}
}

// Unseal reopens the table for bulk loading: the indexes go stale (they are
// rebuilt by the next Seal) and the epoch advances.
func (t *Table) Unseal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sealed {
		return
	}
	t.sealed = false
	t.advanceLocked()
}

// InsertSealed inserts one tuple into a sealed table, maintaining the sorted
// duplicate-free row order and every registered index incrementally. It
// reports whether the tuple was actually added (false for a duplicate: set
// semantics make duplicate insertion a no-op). The row slice is replaced,
// not edited, so open scans keep a consistent snapshot.
func (t *Table) InsertSealed(v value.Value) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sealed {
		return false, fmt.Errorf("storage: table %s is not sealed (use Insert during bulk load)", t.name)
	}
	if !types.Check(v, t.elem) {
		return false, fmt.Errorf("storage: value %s does not conform to %s element type %s", v, t.name, t.elem)
	}
	i := sort.Search(len(t.rows), func(i int) bool { return !value.Less(t.rows[i], v) })
	if i < len(t.rows) && value.Equal(t.rows[i], v) {
		return false, nil // already present
	}
	rows := make([]value.Value, 0, len(t.rows)+1)
	rows = append(rows, t.rows[:i]...)
	rows = append(rows, v)
	rows = append(rows, t.rows[i:]...)
	t.rows = rows
	t.advanceLocked()
	for _, ix := range t.indexes {
		if !ix.Add(v) {
			// The value typechecked, so a registered attribute must exist;
			// treat a miss as corruption rather than silently skipping.
			return true, errMissingAttr(t.name, v, ix.Attrs())
		}
	}
	return true, nil
}

// Delete removes one tuple (by value equality) from a sealed table,
// maintaining row order and indexes. It reports whether the tuple was present.
func (t *Table) Delete(v value.Value) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sealed {
		return false, fmt.Errorf("storage: table %s is not sealed", t.name)
	}
	i := sort.Search(len(t.rows), func(i int) bool { return !value.Less(t.rows[i], v) })
	if i >= len(t.rows) || !value.Equal(t.rows[i], v) {
		return false, nil
	}
	t.removeRowsLocked([]int{i})
	return true, nil
}

// DeleteRows removes every listed tuple (by value equality) from a sealed
// table in one batch — the entry point for callers that computed the victim
// set from a snapshot (e.g. by evaluating a predicate that may itself read
// this table, which must not run under the table's lock). Returns the number
// of tuples actually present and removed. Victims in canonical order (a query
// result's element order) are located by a search that only ever moves
// forward; any other order costs one full binary search per victim.
func (t *Table) DeleteRows(vs []value.Value) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sealed {
		return 0, fmt.Errorf("storage: table %s is not sealed", t.name)
	}
	victims := make([]int, 0, len(vs))
	lo := 0
	for k, v := range vs {
		if k > 0 && !value.Less(vs[k-1], v) {
			lo = 0
		}
		i, found := slices.BinarySearchFunc(t.rows[lo:], v, value.Compare)
		if lo += i; found {
			victims = append(victims, lo)
		}
	}
	if !slices.IsSorted(victims) {
		slices.Sort(victims)
	}
	victims = slices.Compact(victims)
	t.removeRowsLocked(victims)
	return len(victims), nil
}

// removeRowsLocked drops the rows at the given strictly ascending positions:
// the surviving runs between victims are copied into a fresh slice
// (copy-on-write), the victims leave every index, and the epoch advances. No
// victims, no mutation. Caller holds the write lock on a sealed table.
func (t *Table) removeRowsLocked(victims []int) {
	if len(victims) == 0 {
		return
	}
	rows := make([]value.Value, 0, len(t.rows)-len(victims))
	from := 0
	for _, i := range victims {
		for _, ix := range t.indexes {
			ix.Remove(t.rows[i])
		}
		rows = append(rows, t.rows[from:i]...)
		from = i + 1
	}
	t.rows = append(rows, t.rows[from:]...)
	t.advanceLocked()
}

// advanceLocked records a mutation: the epoch advances and the new rows get
// a fresh memo, or none while the table is unsealed. Caller holds the write
// lock.
func (t *Table) advanceLocked() {
	t.epoch++
	t.memo = nil
	if t.sealed {
		t.memo = &Memo{id: memoIDs.Add(1)}
	}
}

// Len returns the current row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Rows returns a snapshot of the rows; the slice must not be modified. Once
// the table is sealed the snapshot is immutable — sealed mutations replace
// the slice rather than editing it. Seal first for set semantics.
func (t *Table) Rows() []value.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Snapshot returns the row snapshot, as Rows does, together with the memo
// that belongs to exactly those rows: whatever a consumer stores there was
// derived from this snapshot and is served only with it. An unsealed table's
// rows get no memo (nil).
func (t *Table) Snapshot() ([]value.Value, *Memo) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows, t.memo
}

// MemoEntries is the most entries one snapshot's memo keeps. Entries are
// whole derived structures (a hash join's build over the snapshot, a nest
// join's groups), so the cap bounds a table's memo at a small multiple of
// its snapshot's size.
const MemoEntries = 16

// Memo is the per-snapshot cache of a sealed table: entries derived from
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
// evaluator, where a table reference is simply a set-valued constant). A
// sealed table's rows are already canonical and never modified in place, so
// the view is the row snapshot itself; an unsealed table canonicalizes a copy.
func (t *Table) AsSet() value.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.sealed {
		return value.CanonicalSet(t.rows)
	}
	b := value.NewSetBuilder(len(t.rows))
	for _, r := range t.rows {
		b.Add(r)
	}
	return b.Build()
}

// --- Per-table index registry ---

// CreateIndex registers (and, if the table is sealed, builds) a persistent
// hash index on the given ordered list of top-level attributes. A single
// attribute gives the classic equi-key index; multiple attributes give a
// composite index whose every non-empty prefix is probeable (see HashIndex).
// The index is rebuilt on every Seal and maintained incrementally by
// InsertSealed/Delete/DeleteRows. Creating an index that already exists is
// a no-op.
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
	if t.sealed {
		t.indexes[name] = t.buildIndexLocked(attrs)
	} else {
		t.indexes[name] = NewHashIndex(attrs...) // built by the next Seal
	}
	return nil
}

// DropIndex unregisters the index on the given ordered attribute list,
// reporting whether it existed. The data is unchanged, so the epoch does not
// advance. An in-flight query that already resolved the *HashIndex keeps
// probing its snapshot — buckets are copy-on-write — while subsequent Index
// lookups miss, so the planner compiles later queries without it.
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
	return true
}

// buildIndexLocked builds a fresh index over the current rows. Caller holds
// the write lock; attribute existence was validated by CreateIndex.
func (t *Table) buildIndexLocked(attrs []string) *HashIndex {
	ix := NewHashIndex(attrs...)
	for _, r := range t.rows {
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

// Index returns the live index with the given canonical name (a bare
// attribute for single-attribute indexes, IndexName(attrs) for composite
// ones). It reports ok only while the table is sealed: between Unseal and
// the next Seal the registered indexes are stale, and consumers (the
// planner's index joins and scans) must not probe them.
func (t *Table) Index(name string) (*HashIndex, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.sealed {
		return nil, false
	}
	ix, ok := t.indexes[name]
	return ix, ok
}

// IndexOn returns the live index on exactly the given ordered attribute list.
func (t *Table) IndexOn(attrs []string) (*HashIndex, bool) {
	return t.Index(IndexName(attrs))
}

// IndexAttrs returns the canonical names of the registered indexes, sorted
// ("b" for a single-attribute index, "b,d" for a composite one).
func (t *Table) IndexAttrs() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for a := range t.indexes {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Indexes returns the attribute lists of the live indexes (nil while the
// table is unsealed), sorted by canonical name — the planner's index
// enumeration oracle.
func (t *Table) Indexes() [][]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.sealed {
		return nil
	}
	names := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([][]string, len(names))
	for i, n := range names {
		out[i] = t.indexes[n].Attrs()
	}
	return out
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

// SealAll seals every table.
func (db *DB) SealAll() {
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	for _, t := range tables {
		t.Seal()
	}
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
