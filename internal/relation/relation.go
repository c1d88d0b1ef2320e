package relation

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Relation is an in-memory bag of tuples conforming to a schema, with
// optional per-column hash indexes used by the join evaluator and
// incrementally maintained statistics (see Stats) used by the cost-
// based join planner. Indexes key directly on Value (a comparable
// struct), so probes allocate nothing — no per-lookup key-string
// construction.
//
// Concurrency: reads (Lookup, Contains, Rows, EnsureIndex, Stats) may
// run concurrently with each other — index construction is
// synchronized, so concurrent readers lazily indexing a shared relation
// are safe. Mutations (Insert, Delete, Dedup, SortRows) require
// external synchronization with respect to readers, with one carve-out:
// Stats may run concurrently with Insert (the statistics fields and
// row count are exchanged under the lock).
type Relation struct {
	Schema  Schema
	rows    []Tuple
	mu      sync.RWMutex            // guards indexes, sketches, rows len vs Insert
	indexes map[int]map[Value][]int // column -> value -> row ids
	version uint64                  // bumped on every mutation; see Version
	// sketches holds one distinct-count sketch per column; statRows is
	// how many rows they have absorbed. Statistics are valid iff
	// statRows == len(rows) — rows appended without Insert (Project,
	// Select) desynchronize the count and disable stats. See stats.go.
	sketches []colSketch
	statRows int
	// dict is the per-column dictionary encoding behind the columnar
	// batch kernel; encRows mirrors statRows — the encoding is valid
	// iff encRows == len(rows). codeIdx caches packed code→rows
	// indexes built from dict; any mutation drops it. See dict.go.
	dict    *Dict
	encRows int
	codeIdx map[int]*CodeIndex
	// dead counts the rows Delete removed since dict was last built from
	// scratch — an upper bound on its dead codes. Delete re-encodes once
	// it exceeds the live row count. See dict.go.
	dead int
	// rowsShared records that a snapshot may share rows' backing array
	// (see SnapshotAs), so the next compaction or sort must write a
	// fresh slice instead of overwriting rows in place. It is set by
	// readers, hence atomic.
	rowsShared atomic.Bool
}

// New creates an empty relation with the given schema. Column
// statistics are maintained incrementally as rows are inserted; use
// NewResult for relations that should skip that work.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// NewResult creates an empty relation that maintains no column
// statistics and no dictionary encoding as rows are inserted —
// intended for answer/result relations, which are usually consumed by
// the caller rather than joined against again, so per-insert value
// hashing would be pure overhead on the serving hot path. A planner
// compiling a query against such a relation uses the statistics-free
// greedy order, and the engine encodes it on first read (see
// EnsureEncoding); Insert maintains that encoding afterwards.
func NewResult(schema Schema) *Relation {
	return &Relation{Schema: schema, statRows: -1, encRows: -1}
}

// FromTuples creates a relation and inserts the given tuples, panicking on
// schema mismatch (intended for literals in tests and generators).
func FromTuples(schema Schema, tuples ...Tuple) *Relation {
	r := New(schema)
	for _, t := range tuples {
		if err := r.Insert(t); err != nil {
			panic(err)
		}
	}
	return r
}

// Len returns the number of tuples (bag semantics: duplicates count).
func (r *Relation) Len() int { return len(r.rows) }

// Version returns a counter incremented by every mutating operation
// (Insert, Delete, Dedup, SortRows). Caches key snapshots on it.
func (r *Relation) Version() uint64 { return r.version }

// RestoreVersion overwrites the mutation-version counter. Recovery and
// delta catch-up use it to re-establish the exact (version, rows)
// freshness fingerprint a relation had when its state was persisted or
// served, so mirrors synced before a restart still match after it. It
// follows the mutation contract: external synchronization with readers.
func (r *Relation) RestoreVersion(v uint64) {
	r.mu.Lock()
	r.version = v
	r.mu.Unlock()
}

// SnapshotAs returns a relation named name holding this relation's
// current tuples, without copying them: the snapshot shares the row
// slice's backing array through a full-slice expression ([:n:n]), and
// no mutation of either side overwrites a row below the length the
// snapshot saw — Insert only appends past it (an append to the
// snapshot reallocates), and Delete, Dedup and SortRows write a fresh
// slice while the array is shared. So later inserts or deletes here
// do not affect the snapshot. Statistics (deep-copied) and the
// dictionary encoding (sharing the source's code vectors and decode
// tables the same way — see colDict.clone) carry over, so the snapshot
// executes batched while the source keeps changing, and planning
// against a snapshot sees the source's cardinalities without
// re-scanning.
func (r *Relation) SnapshotAs(name string) *Relation {
	rows := r.rows[:len(r.rows):len(r.rows)]
	r.rowsShared.Store(true)
	out := &Relation{
		Schema: Schema{Name: name, Attrs: r.Schema.Attrs},
		rows:   rows,
	}
	out.rowsShared.Store(true)
	r.mu.RLock()
	if r.statRows == len(rows) {
		out.sketches = cloneSketches(r.sketches)
		out.statRows = len(rows)
	}
	if r.encRows == len(rows) {
		out.dict = r.dict.clone()
		out.encRows = len(rows)
		out.dead = r.dead
	}
	r.mu.RUnlock()
	return out
}

// Rows returns the underlying tuple slice; callers must not mutate it.
func (r *Relation) Rows() []Tuple { return r.rows }

// Row returns the i-th tuple.
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Insert appends a tuple after validating it against the schema and
// updates any existing indexes and column statistics.
func (r *Relation) Insert(t Tuple) error {
	if err := r.Schema.Compatible(t); err != nil {
		return err
	}
	r.mu.Lock()
	id := len(r.rows)
	r.rows = append(r.rows, t)
	r.version++
	for col, idx := range r.indexes {
		idx[t[col]] = append(idx[t[col]], id)
	}
	r.addStatsLocked(t, id)
	r.addEncodingLocked(t, id)
	r.mu.Unlock()
	return nil
}

// MustInsert inserts values, panicking on schema mismatch.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertBatch appends a run of tuples under one lock acquisition,
// with the same per-row validation, index, statistics, and encoding
// maintenance as Insert. Materializing consumers that buffer streamed
// answers use it to amortize the locking and slice-growth cost of
// row-at-a-time appends.
func (r *Relation) InsertBatch(ts []Tuple) error {
	for _, t := range ts {
		if err := r.Schema.Compatible(t); err != nil {
			return err
		}
	}
	r.mu.Lock()
	if need := len(r.rows) + len(ts); cap(r.rows) < need {
		grown := make([]Tuple, len(r.rows), need+need/2)
		copy(grown, r.rows)
		r.rows = grown
	}
	for _, t := range ts {
		id := len(r.rows)
		r.rows = append(r.rows, t)
		for col, idx := range r.indexes {
			idx[t[col]] = append(idx[t[col]], id)
		}
		r.addStatsLocked(t, id)
		r.addEncodingLocked(t, id)
	}
	r.version++
	r.mu.Unlock()
	return nil
}

// Delete removes all tuples equal to t and reports how many were removed.
// Finding them is a scan of the int32 code vectors when the dictionary
// encoding is current (none at all when some value of t is missing from
// its column's dictionary), of the tuples otherwise; removing them
// compacts rows and code vectors in one pass, with no re-encode.
// Removed values stay in the dictionary as dead codes until the rows
// removed since the last full encode exceed the live row count, which
// keeps re-encoding amortized O(1) per removed row and the dictionary
// within about twice its live size. Indexes are rebuilt lazily on next
// use; column statistics are rebuilt eagerly from the surviving
// distinct values, so they stay exact.
func (r *Relation) Delete(t Tuple) int {
	var gone []int
	r.eachMatch(t, func(id int) { gone = append(gone, id) })
	if len(gone) == 0 {
		return 0
	}
	statsValid := r.statRows == len(r.rows)
	r.mu.Lock()
	r.dropRowsLocked(gone)
	if statsValid {
		r.rebuildStatsLocked()
	}
	r.dead += len(gone)
	if r.dict != nil && r.encRows == len(r.rows) && r.dead > len(r.rows) {
		r.rebuildEncodingLocked()
	}
	r.mu.Unlock()
	return len(gone)
}

// Count reports how many tuples equal t, by the same scan Delete uses
// to find them.
func (r *Relation) Count(t Tuple) int {
	n := 0
	r.eachMatch(t, func(int) { n++ })
	return n
}

// eachMatch calls fn with the id of every row equal to t, in ascending
// order. With a current encoding it compares codes: t's values are
// resolved once, and a value absent from its column's dictionary means
// no row can match.
func (r *Relation) eachMatch(t Tuple, fn func(id int)) {
	r.mu.RLock() // EnsureEncoding may install a Dict concurrently
	d, encValid := r.dict, r.encRows == len(r.rows)
	r.mu.RUnlock()
	if !encValid || d == nil || len(t) == 0 || len(t) != len(d.cols) {
		for i, row := range r.rows {
			if row.Equal(t) {
				fn(i)
			}
		}
		return
	}
	want := make([]int32, len(t))
	for col, v := range t {
		code, ok := d.cols[col].lookup(v)
		if !ok {
			return
		}
		want[col] = code
	}
	for i, code := range d.cols[0].codes {
		if code != want[0] {
			continue
		}
		match := true
		for col := 1; col < len(want); col++ {
			if d.cols[col].codes[i] != want[col] {
				match = false
				break
			}
		}
		if match {
			fn(i)
		}
	}
}

// dropRowsLocked removes the rows at the ascending, non-empty ids gone.
// It compacts the row slice in place, clearing the tail so the dropped
// tuples are not kept reachable past the new length — or, while a
// snapshot shares it, into a fresh slice of the same capacity. The
// code vectors of a current encoding always go to fresh ones, since
// snapshots share them too (see SnapshotAs). Dictionary values are
// kept, so every code keeps its meaning; the row count the statistics
// track is left to the caller. Caller holds r.mu.
func (r *Relation) dropRowsLocked(gone []int) {
	encValid := r.encRows == len(r.rows) && r.dict != nil
	n := len(r.rows) - len(gone)
	if r.rowsShared.Swap(false) {
		rows := make([]Tuple, n, cap(r.rows))
		compact(rows, r.rows, gone)
		r.rows = rows
	} else {
		compact(r.rows, r.rows, gone)
		clear(r.rows[n:])
		r.rows = r.rows[:n]
	}
	if encValid {
		for col := range r.dict.cols {
			cd := &r.dict.cols[col]
			codes := make([]int32, n, cap(cd.codes))
			compact(codes, cd.codes, gone)
			cd.codes = codes
		}
		r.dict.n = n
		r.encRows = n
	}
	r.indexes = nil
	r.codeIdx = nil
	r.version++
}

// compact copies src minus the elements at the ascending ids gone to
// dst, which may alias src.
func compact[T any](dst, src []T, gone []int) {
	w := copy(dst, src[:gone[0]])
	for k, g := range gone {
		end := len(src)
		if k+1 < len(gone) {
			end = gone[k+1]
		}
		w += copy(dst[w:], src[g+1:end])
	}
}

func (r *Relation) dropIndexes() {
	r.mu.Lock()
	r.indexes = nil
	r.mu.Unlock()
}

// buildIndexLocked constructs the index for col; r.mu must be held.
func (r *Relation) buildIndexLocked(col int) {
	if r.indexes == nil {
		r.indexes = make(map[int]map[Value][]int)
	}
	idx := make(map[Value][]int, len(r.rows))
	for i, row := range r.rows {
		idx[row[col]] = append(idx[row[col]], i)
	}
	r.indexes[col] = idx
}

// BuildIndex constructs (or rebuilds) a hash index on the given column.
func (r *Relation) BuildIndex(col int) {
	if col < 0 || col >= r.Schema.Arity() {
		return
	}
	r.mu.Lock()
	r.buildIndexLocked(col)
	r.mu.Unlock()
}

// EnsureIndex builds the index on col if it does not exist yet. The
// check-and-build is atomic, so concurrent readers sharing a relation
// (e.g. queries over a cached snapshot) may call it safely.
func (r *Relation) EnsureIndex(col int) {
	if col < 0 || col >= r.Schema.Arity() {
		return
	}
	r.mu.Lock()
	if _, ok := r.indexes[col]; !ok {
		r.buildIndexLocked(col)
	}
	r.mu.Unlock()
}

// Lookup returns the row ids whose column col equals v, using an index if
// present and scanning otherwise.
func (r *Relation) Lookup(col int, v Value) []int {
	r.mu.RLock()
	idx, ok := r.indexes[col]
	var ids []int
	if ok {
		ids = idx[v]
	}
	r.mu.RUnlock()
	if ok {
		return ids
	}
	var out []int
	for i, row := range r.rows {
		if row[col] == v {
			out = append(out, i)
		}
	}
	return out
}

// HasIndex reports whether column col is indexed.
func (r *Relation) HasIndex(col int) bool {
	r.mu.RLock()
	_, ok := r.indexes[col]
	r.mu.RUnlock()
	return ok
}

// Contains reports whether the relation contains a tuple equal to t.
func (r *Relation) Contains(t Tuple) bool {
	if len(r.rows) > 0 && len(t) > 0 {
		r.mu.RLock()
		idx, ok := r.indexes[0]
		var ids []int
		if ok {
			ids = idx[t[0]]
		}
		r.mu.RUnlock()
		if ok {
			for _, i := range ids {
				if r.rows[i].Equal(t) {
					return true
				}
			}
			return false
		}
	}
	for _, row := range r.rows {
		if row.Equal(t) {
			return true
		}
	}
	return false
}

// Dedup removes duplicate tuples in place, preserving first occurrence
// order, and returns the relation for chaining. Column statistics and
// the dictionary survive without a rebuild: removing duplicate tuples
// leaves every column's distinct-value set — hence its sketch and its
// dictionary — unchanged; the code vectors are compacted like Delete's.
func (r *Relation) Dedup() *Relation {
	statsValid := r.statRows == len(r.rows)
	seen := NewTupleSet(len(r.rows))
	var gone []int
	for i, row := range r.rows {
		if !seen.Add(row) {
			gone = append(gone, i)
		}
	}
	if len(gone) > 0 {
		r.mu.Lock()
		r.dropRowsLocked(gone)
		if statsValid {
			r.statRows = len(r.rows)
		}
		r.mu.Unlock()
	}
	return r
}

// SortRows orders tuples lexicographically in place (for deterministic
// output) and returns the relation — on a fresh copy while a snapshot
// shares the row slice (see SnapshotAs). The row count is unchanged
// but the order is not, so the positional dictionary encoding is
// re-derived rather than trusted.
func (r *Relation) SortRows() *Relation {
	encValid := r.encRows == len(r.rows)
	rows := r.rows
	if r.rowsShared.Swap(false) {
		rows = slices.Clone(rows)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Less(rows[j]) })
	r.mu.Lock()
	r.rows = rows
	r.indexes = nil
	r.codeIdx = nil
	if encValid {
		r.rebuildEncodingLocked()
	}
	r.mu.Unlock()
	r.version++
	return r
}

// Clone returns a deep copy (indexes are not copied; statistics and the
// dictionary encoding are).
func (r *Relation) Clone() *Relation {
	out := New(r.Schema.Clone())
	out.rows = make([]Tuple, len(r.rows))
	for i, row := range r.rows {
		out.rows[i] = row.Clone()
	}
	r.mu.RLock()
	if r.statRows == len(r.rows) {
		out.sketches = cloneSketches(r.sketches)
		out.statRows = len(out.rows)
	}
	if r.encRows == len(r.rows) {
		out.dict = r.dict.clone()
		out.encRows = len(out.rows)
		out.dead = r.dead
	}
	r.mu.RUnlock()
	return out
}

// Project returns a new relation keeping only the named attributes.
func (r *Relation) Project(attrNames ...string) (*Relation, error) {
	cols := make([]int, len(attrNames))
	attrs := make([]Attribute, len(attrNames))
	for i, n := range attrNames {
		c := r.Schema.AttrIndex(n)
		if c < 0 {
			return nil, fmt.Errorf("project: no attribute %q in %s", n, r.Schema.Name)
		}
		cols[i] = c
		attrs[i] = r.Schema.Attrs[c]
	}
	out := New(Schema{Name: r.Schema.Name, Attrs: attrs})
	for _, row := range r.rows {
		t := make(Tuple, len(cols))
		for i, c := range cols {
			t[i] = row[c]
		}
		out.rows = append(out.rows, t)
	}
	return out, nil
}

// Select returns a new relation with rows satisfying pred.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := New(r.Schema.Clone())
	for _, row := range r.rows {
		if pred(row) {
			out.rows = append(out.rows, row.Clone())
		}
	}
	return out
}

// Union appends (bag union) the rows of other; schemas must have equal
// arity and types.
func (r *Relation) Union(other *Relation) error {
	if r.Schema.Arity() != other.Schema.Arity() {
		return fmt.Errorf("union: arity mismatch %d vs %d", r.Schema.Arity(), other.Schema.Arity())
	}
	for _, row := range other.rows {
		if err := r.Insert(row.Clone()); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports set equality of tuples (order-insensitive, duplicates
// collapsed) with other.
func (r *Relation) Equal(other *Relation) bool {
	if r.Schema.Arity() != other.Schema.Arity() {
		return false
	}
	a := NewTupleSet(len(r.rows))
	for _, row := range r.rows {
		a.Add(row)
	}
	b := NewTupleSet(len(other.rows))
	for _, row := range other.rows {
		b.Add(row)
	}
	if a.Len() != b.Len() {
		return false
	}
	for _, row := range r.rows {
		if !b.Contains(row) {
			return false
		}
	}
	return true
}

// String renders the schema and row count.
func (r *Relation) String() string {
	return fmt.Sprintf("%s [%d rows]", r.Schema, len(r.rows))
}
