package relation

// TupleAdder is the deduplication interface the join engine streams
// answers through: Add inserts a tuple and reports whether it was
// absent. TupleSet implements it for single-goroutine execution;
// ShardedTupleSet implements it for concurrent union branches.
type TupleAdder interface {
	Add(Tuple) bool
}

// TupleMap maps tuples to values of type V. It buckets by Tuple.Hash
// and confirms a key with an exact comparison, so it never allocates
// per-probe key strings the way a map[string]V over Tuple.Key would.
// The zero value is an empty map ready to use.
type TupleMap[V any] struct {
	buckets map[uint64][]tupleEntry[V]
	n       int
}

// tupleEntry is one key and its value; the value comes first so a
// zero-size V adds no padding.
type tupleEntry[V any] struct {
	val V
	key Tuple
}

// NewTupleMap returns an empty map sized for roughly n tuples.
func NewTupleMap[V any](n int) *TupleMap[V] {
	return &TupleMap[V]{buckets: make(map[uint64][]tupleEntry[V], n)}
}

// Get returns t's value and whether t is present.
func (m *TupleMap[V]) Get(t Tuple) (V, bool) {
	for _, e := range m.buckets[t.Hash()] {
		if e.key.Equal(t) {
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Put sets t's value and reports whether t was absent. The map keeps a
// reference to t; callers must not mutate it afterwards.
func (m *TupleMap[V]) Put(t Tuple, v V) bool {
	h := t.Hash()
	b := m.buckets[h]
	for i := range b {
		if b[i].key.Equal(t) {
			b[i].val = v
			return false
		}
	}
	if m.buckets == nil {
		m.buckets = make(map[uint64][]tupleEntry[V])
	}
	m.buckets[h] = append(b, tupleEntry[V]{val: v, key: t})
	m.n++
	return true
}

// Len returns the number of distinct tuples put.
func (m *TupleMap[V]) Len() int { return m.n }

// TupleSet is a hash set of tuples used for duplicate elimination on hot
// paths: a TupleMap with no values.
type TupleSet struct {
	m TupleMap[struct{}]
}

// NewTupleSet returns an empty set sized for roughly n tuples.
func NewTupleSet(n int) *TupleSet {
	return &TupleSet{m: *NewTupleMap[struct{}](n)}
}

// Add inserts t and reports whether it was absent. The set keeps a
// reference to t; callers must not mutate it afterwards.
func (s *TupleSet) Add(t Tuple) bool { return s.m.Put(t, struct{}{}) }

// Contains reports membership without inserting.
func (s *TupleSet) Contains(t Tuple) bool {
	_, ok := s.m.Get(t)
	return ok
}

// Len returns the number of distinct tuples added.
func (s *TupleSet) Len() int { return s.m.Len() }
