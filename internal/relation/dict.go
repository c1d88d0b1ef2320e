package relation

import "sync"

// This file maintains the per-relation dictionary encoding behind the
// columnar batch kernel in internal/cq: each column's values are mapped
// to dense small ints ("codes"), and a columnar code vector aligned
// with the row slice gives the engine an int32 read view over the
// relation. Equality probes and duplicate elimination then compare and
// hash ints instead of 40-byte Value structs. The encoding is updated
// incrementally on Insert — one map probe and one append per column.
// Removing rows (Delete, Dedup) copies the surviving codes into fresh
// code vectors and keeps the dictionary as is: a value whose last row
// went stays behind as a dead code, which decodes and resolves as
// before but matches no row. Delete re-encodes from scratch only once
// the rows it removed since the last full encode exceed the live row
// count, so the dictionary stays within about twice its live size.
// Reordering rows (SortRows) re-encodes. Relations whose rows were
// appended without Insert (Project, Select results) and NewResult
// relations carry no encoding until the engine first reads them:
// EnsureEncoding builds it from the rows then, and Insert maintains it
// from there on.
//
// Codes are stable for the life of a Dict: dictionaries only grow, and
// a full re-encode installs a new Dict rather than renumbering the old
// one, so the batch kernel may memoize translations keyed by *Dict.

// colDict is one column's dictionary: the columnar code vector (row id
// → code), the decode table (code → value), and the encode map (value →
// code). Codes are dense: the column's kth distinct value, in first-
// appearance order, has code k-1. Snapshot clones (once != nil) share
// the immutable encoded prefix and build m lazily on first lookup.
type colDict struct {
	codes []int32
	vals  []Value
	m     map[Value]int32
	once  *sync.Once
}

// smallDictWidth is the column width below which the encode map is not
// worth its allocation: encode and lookup linear-scan the decode table
// instead. The many tiny delta relations flowing through updategram
// propagation never grow past it, so they never pay for a map.
const smallDictWidth = 8

// encode appends the value's code for one more row, growing the
// dictionary when the value is new, and returns the code. Caller holds
// the relation's write lock.
func (c *colDict) encode(v Value) int32 {
	if c.once != nil {
		// Snapshot clone being inserted into: detach from lazy mode; the
		// size rule below re-derives the map when the dictionary needs one.
		c.once = nil
		c.m = nil
	}
	if c.m == nil && len(c.vals) >= smallDictWidth {
		c.materialize()
	}
	if c.m != nil {
		code, ok := c.m[v]
		if !ok {
			code = int32(len(c.vals))
			c.vals = append(c.vals, v)
			c.m[v] = code
		}
		c.codes = append(c.codes, code)
		return code
	}
	code, ok := c.scan(v)
	if !ok {
		code = int32(len(c.vals))
		c.vals = append(c.vals, v)
	}
	c.codes = append(c.codes, code)
	return code
}

// scan is the mapless lookup: a linear pass over the decode table,
// faster than a map for the handful of values a small column holds.
func (c *colDict) scan(v Value) (int32, bool) {
	for i, u := range c.vals {
		if u == v {
			return int32(i), true
		}
	}
	return 0, false
}

// clone snapshots the column dictionary. No mutation writes into an
// existing element of the code vector or decode table — Insert appends,
// Delete and Dedup swap in a fresh code vector — so the clone shares
// their backing arrays, capped at the current lengths: a later append
// by the source writes past the clone's cap (or reallocates) and never
// aliases what the clone can read. The encode map cannot be shared —
// the source mutates it in place — so the clone rebuilds it from vals
// lazily, on the first lookup that actually needs it; snapshot-heavy
// paths that only decode never pay for it.
func (c *colDict) clone() colDict {
	return colDict{
		codes: c.codes[:len(c.codes):len(c.codes)],
		vals:  c.vals[:len(c.vals):len(c.vals)],
		once:  new(sync.Once),
	}
}

// materialize builds the encode map from the decode table; on shared
// snapshots it is invoked through once so concurrent lookups race
// safely, on a source dictionary crossing smallDictWidth it is called
// directly under the write lock.
func (c *colDict) materialize() {
	m := make(map[Value]int32, len(c.vals))
	for i, v := range c.vals {
		m[v] = int32(i)
	}
	c.m = m
}

// lookup resolves a value to its code. Small columns linear-scan the
// decode table; lazy snapshot clones of larger columns materialize
// their encode map on first use (through once, never touching c.m
// before the Do, so concurrent lookups on a shared snapshot are
// race-free).
func (c *colDict) lookup(v Value) (int32, bool) {
	if c.once != nil {
		if len(c.vals) <= smallDictWidth {
			return c.scan(v)
		}
		c.once.Do(c.materialize)
	}
	if c.m == nil {
		return c.scan(v)
	}
	code, ok := c.m[v]
	return code, ok
}

// Dict is a relation's dictionary encoding: one dictionary per column
// plus the encoded row count. It is a read view — the batch kernel
// resolves codes to values and values to codes through it — and is
// reached via Relation.Encoding, which returns nil when the encoding is
// not current. Reading a Dict concurrently with relation mutations
// requires the same external synchronization as reading Rows.
type Dict struct {
	cols []colDict
	n    int
}

func newDict(arity int) *Dict {
	return &Dict{cols: make([]colDict, arity)}
}

// Len returns the number of encoded rows.
func (d *Dict) Len() int { return d.n }

// Width returns the number of distinct values — hence codes — in the
// column's dictionary, dead codes included: after Delete some of them
// may occur in no row.
func (d *Dict) Width(col int) int { return len(d.cols[col].vals) }

// Codes returns the column's code vector, aligned with the relation's
// rows; callers must not mutate it.
func (d *Dict) Codes(col int) []int32 { return d.cols[col].codes }

// Value decodes one code of the column.
func (d *Dict) Value(col int, code int32) Value { return d.cols[col].vals[code] }

// Code returns the column's code for v and whether v is in the
// column's dictionary — a miss means no row of the relation holds v
// there; a hit may be a dead code that no row holds any more.
func (d *Dict) Code(col int, v Value) (int32, bool) {
	return d.cols[col].lookup(v)
}

// clone snapshots the encoding, sharing its arrays as colDict.clone
// describes (nil stays nil).
func (d *Dict) clone() *Dict {
	if d == nil {
		return nil
	}
	out := &Dict{cols: make([]colDict, len(d.cols)), n: d.n}
	for i := range d.cols {
		out.cols[i] = d.cols[i].clone()
	}
	return out
}

// Encoding returns the relation's dictionary encoding, or nil when one
// is not current — rows were appended without Insert, or a NewResult
// relation has not been read by the engine yet (see EnsureEncoding). A
// non-nil Dict covers exactly the current rows. The check is lock-protected, but reading the returned
// Dict concurrently with mutations requires external synchronization,
// like Rows.
func (r *Relation) Encoding() *Dict {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.encRows != len(r.rows) {
		return nil
	}
	if r.dict == nil {
		// Valid but empty (no Insert yet): hand the kernel a real,
		// all-empty view so empty relations stay batch-eligible.
		return newDict(r.Schema.Arity())
	}
	return r.dict
}

// EnsureEncoding returns the relation's dictionary encoding, building
// it from the current rows first when none is current — a NewResult
// relation, a Project or Select result, or rows appended without
// Insert. It is the batch kernel's only way to get an encoding. The
// common case costs one read lock, so warm readers sharing a relation
// never serialize on it; a build takes the write lock and re-checks,
// so concurrent first readers build once and share the result. From
// then on Insert maintains the encoding. The build adds no statistics
// (valid statistics still imply a current encoding, never the reverse)
// and is not a mutation: Version is unchanged. Reading the returned
// Dict concurrently with mutations requires external synchronization,
// like Encoding.
func (r *Relation) EnsureEncoding() *Dict {
	if d := r.Encoding(); d != nil {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.encRows != len(r.rows) || r.dict == nil {
		r.rebuildEncodingLocked()
	}
	return r.dict
}

// addEncodingLocked folds one inserted tuple into the dictionary
// encoding if it has tracked every prior row; id is the row's index.
// Any code index on the relation is dropped rather than maintained —
// its packed layout cannot absorb appends — and is lazily rebuilt by
// the next EnsureCodeIndex. Caller holds r.mu.
func (r *Relation) addEncodingLocked(t Tuple, id int) {
	if r.encRows != id {
		return // row bypassed Insert earlier, or NewResult: stay invalid
	}
	if r.dict == nil {
		r.dict = newDict(r.Schema.Arity())
	}
	for col := range r.dict.cols {
		r.dict.cols[col].encode(t[col])
	}
	r.dict.n = id + 1
	r.encRows = id + 1
	r.codeIdx = nil
}

// rebuildEncodingLocked recomputes the dictionary encoding from the
// current rows into a new Dict (on first use by EnsureEncoding, after a
// reorder invalidated the positional one, or once dead codes piled
// up), dropping every dead code. Caller holds r.mu.
func (r *Relation) rebuildEncodingLocked() {
	r.dict = newDict(r.Schema.Arity())
	r.dead = 0
	for _, row := range r.rows {
		for col := range r.dict.cols {
			r.dict.cols[col].encode(row[col])
		}
	}
	r.dict.n = len(r.rows)
	r.encRows = len(r.rows)
	r.codeIdx = nil
}

// CodeIndex is a dense code → row-ids index over one dictionary-encoded
// column, the batch kernel's counterpart of the Value-keyed hash index:
// a probe is an array access on the probe code, no hashing. The layout
// is packed (CSR): rows holds the row ids of code 0, then code 1, … and
// starts[c] is where code c's run begins. It is immutable once built;
// mutations drop the relation's code indexes and the next
// EnsureCodeIndex rebuilds.
type CodeIndex struct {
	starts []int32
	rows   []int32
}

// Rows returns the ids of rows whose column holds the given code, in
// ascending order; callers must not mutate the slice. Codes outside the
// dictionary return nil.
func (ci *CodeIndex) Rows(code int32) []int32 {
	if code < 0 || int(code) >= len(ci.starts)-1 {
		return nil
	}
	return ci.rows[ci.starts[code]:ci.starts[code+1]]
}

// EnsureCodeIndex returns the column's code index, building it if
// needed, or nil when the relation maintains no current encoding. The
// check-and-build is atomic, so concurrent readers sharing a relation
// may call it safely, and the result is cached until the next mutation.
func (r *Relation) EnsureCodeIndex(col int) *CodeIndex {
	if col < 0 || col >= r.Schema.Arity() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.encRows != len(r.rows) || r.dict == nil {
		return nil
	}
	if ci, ok := r.codeIdx[col]; ok {
		return ci
	}
	cd := &r.dict.cols[col]
	width := len(cd.vals)
	ci := &CodeIndex{
		starts: make([]int32, width+1),
		rows:   make([]int32, len(cd.codes)),
	}
	for _, c := range cd.codes {
		ci.starts[c+1]++
	}
	for c := 1; c <= width; c++ {
		ci.starts[c] += ci.starts[c-1]
	}
	next := make([]int32, width)
	copy(next, ci.starts[:width])
	for rid, c := range cd.codes {
		ci.rows[next[c]] = int32(rid)
		next[c]++
	}
	if r.codeIdx == nil {
		r.codeIdx = make(map[int]*CodeIndex)
	}
	r.codeIdx[col] = ci
	return ci
}
