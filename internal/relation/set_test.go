package relation

import (
	"reflect"
	"testing"
)

func TestValueHashDistinguishesKinds(t *testing.T) {
	pairs := [][2]Value{
		{SV("1"), IV(1)},
		{IV(1), FV(1)},
		{SV("a"), SV("b")},
		{IV(3), IV(4)},
	}
	for _, p := range pairs {
		if p[0].Hash() == p[1].Hash() {
			t.Errorf("Hash collision between %v and %v", p[0], p[1])
		}
	}
	if SV("x").Hash() != SV("x").Hash() {
		t.Error("Hash not deterministic")
	}
}

func TestTupleSet(t *testing.T) {
	s := NewTupleSet(4)
	a := Tuple{SV("x"), IV(1)}
	b := Tuple{SV("x"), IV(2)}
	if !s.Add(a) {
		t.Error("first Add = false")
	}
	if s.Add(Tuple{SV("x"), IV(1)}) {
		t.Error("duplicate Add = true")
	}
	if !s.Add(b) {
		t.Error("distinct Add = false")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(a) || s.Contains(Tuple{SV("y"), IV(1)}) {
		t.Error("Contains wrong")
	}
}

func TestTupleMap(t *testing.T) {
	var m TupleMap[int] // the zero value is ready to use
	a := Tuple{SV("x"), IV(1)}
	if _, ok := m.Get(a); ok {
		t.Error("Get on empty map found a value")
	}
	if !m.Put(a, 3) {
		t.Error("first Put = false")
	}
	if m.Put(Tuple{SV("x"), IV(1)}, 5) {
		t.Error("overwriting Put = true")
	}
	if v, ok := m.Get(a); !ok || v != 5 {
		t.Errorf("Get = %d, %v; want 5, true", v, ok)
	}
	if _, ok := m.Get(Tuple{SV("x"), IV(2)}); ok {
		t.Error("Get found an absent tuple")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	r := New(NewSchema("r", Attr("a")))
	v0 := r.Version()
	r.MustInsert(SV("x"))
	if r.Version() == v0 {
		t.Error("Insert did not bump version")
	}
	v1 := r.Version()
	r.MustInsert(SV("x"))
	r.Dedup()
	if r.Version() == v1 {
		t.Error("Dedup did not bump version")
	}
	v2 := r.Version()
	if r.Delete(Tuple{SV("missing")}) != 0 && r.Version() != v2 {
		t.Error("no-op Delete bumped version")
	}
	r.Delete(Tuple{SV("x")})
	if r.Version() == v2 {
		t.Error("Delete did not bump version")
	}
}

func TestSnapshotAsIndependence(t *testing.T) {
	r := New(NewSchema("r", Attr("a")))
	r.MustInsert(SV("x"))
	r.MustInsert(SV("y"))
	snap := r.SnapshotAs("alias.r")
	if snap.Schema.Name != "alias.r" || snap.Len() != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	r.MustInsert(SV("z"))
	r.Delete(Tuple{SV("x")})
	if snap.Len() != 2 {
		t.Errorf("snapshot len changed to %d", snap.Len())
	}
	if !snap.Contains(Tuple{SV("x")}) {
		t.Error("snapshot lost row deleted from source")
	}

	// The snapshot copies no rows: source and snapshot share a backing
	// array, and no mutation on either side — appends, deletes, dedups,
	// sorts — may change what the other holds.
	rowsOf := func(x *Relation) []Tuple { return append([]Tuple(nil), x.Rows()...) }
	r = New(NewSchema("r", Attr("a")))
	for _, v := range []string{"d", "b", "b", "a", "c"} {
		r.MustInsert(SV(v))
	}
	snap = r.SnapshotAs("s")
	if &snap.Rows()[0] != &r.Rows()[0] {
		t.Fatal("snapshot copied the row slice")
	}

	// Source side: each of a delete followed by appends into the freed
	// slots, a dedup and a sort must leave a snapshot taken just before
	// it as it was.
	for _, mutate := range []func(){
		func() { r.Delete(Tuple{SV("d")}); r.MustInsert(SV("x")); r.MustInsert(SV("y")) },
		func() { r.MustInsert(SV("x")); r.Dedup() },
		func() { r.SortRows() },
	} {
		before := r.SnapshotAs("s")
		want := rowsOf(before)
		mutate()
		if got := rowsOf(before); !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot rows after a source mutation = %v, want %v", got, want)
		}
	}

	// Snapshot side: mutating a snapshot must leave its source alone.
	src := rowsOf(r)
	snap2 := r.SnapshotAs("s2")
	snap2.Delete(Tuple{SV("a")})
	snap2.MustInsert(SV("z"))
	snap2.SortRows()
	if got := rowsOf(r); !reflect.DeepEqual(got, src) {
		t.Errorf("source rows after snapshot mutations = %v, want %v", got, src)
	}
	if snap2.Len() != len(src) || !snap2.Contains(Tuple{SV("z")}) || snap2.Contains(Tuple{SV("a")}) {
		t.Errorf("snapshot rows = %v", snap2.Rows())
	}

	// An unshared relation still compacts in place.
	u := New(NewSchema("u", Attr("a")))
	u.MustInsert(SV("a"))
	u.MustInsert(SV("b"))
	base := &u.Rows()[0]
	u.Delete(Tuple{SV("a")})
	if &u.Rows()[0] != base {
		t.Error("Delete on an unshared relation reallocated its rows")
	}
}
