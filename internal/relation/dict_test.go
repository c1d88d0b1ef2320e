package relation

import (
	"fmt"
	"reflect"
	"testing"
)

func dictSchema() Schema {
	return NewSchema("r", Attr("a"), IntAttr("b"))
}

// checkEncoded asserts the relation's encoding is present and decodes
// back to exactly the current rows.
func checkEncoded(t *testing.T, r *Relation) *Dict {
	t.Helper()
	d := r.Encoding()
	if d == nil {
		t.Fatalf("Encoding() = nil, want a current encoding (%d rows)", r.Len())
	}
	if d.Len() != r.Len() {
		t.Fatalf("Dict.Len() = %d, want %d", d.Len(), r.Len())
	}
	for col := 0; col < r.Schema.Arity(); col++ {
		codes := d.Codes(col)
		if len(codes) != r.Len() {
			t.Fatalf("col %d: %d codes for %d rows", col, len(codes), r.Len())
		}
		for i, row := range r.Rows() {
			if got := d.Value(col, codes[i]); got != row[col] {
				t.Fatalf("col %d row %d: decode(%d) = %v, want %v", col, i, codes[i], got, row[col])
			}
			code, ok := d.Code(col, row[col])
			if !ok || code != codes[i] {
				t.Fatalf("col %d row %d: Code(%v) = %d,%v, want %d,true", col, i, row[col], code, ok, codes[i])
			}
		}
	}
	return d
}

func TestDictMaintainedOnInsert(t *testing.T) {
	r := New(dictSchema())
	checkEncoded(t, r) // empty relations are encoded (trivially)
	for i := 0; i < 50; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i%7)), IV(int64(i)))
	}
	d := checkEncoded(t, r)
	if w := d.Width(0); w != 7 {
		t.Errorf("Width(0) = %d, want 7", w)
	}
	if w := d.Width(1); w != 50 {
		t.Errorf("Width(1) = %d, want 50", w)
	}
	if _, ok := d.Code(0, SV("nope")); ok {
		t.Errorf("Code of an absent value reported present")
	}
}

func TestDictLifecycle(t *testing.T) {
	r := New(dictSchema())
	for i := 0; i < 20; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i%3)), IV(int64(i%5)))
	}
	r.Delete(Tuple{SV("k1"), IV(1)})
	checkEncoded(t, r)
	r.Dedup()
	checkEncoded(t, r)
	r.SortRows()
	checkEncoded(t, r)

	if NewResult(dictSchema()).Encoding() != nil {
		t.Errorf("NewResult relation reports an encoding")
	}
	proj, err := r.Project("a")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Encoding() != nil {
		t.Errorf("Project result (rows appended without Insert) reports an encoding")
	}
}

func TestDictSnapshotAndCloneIndependence(t *testing.T) {
	r := New(dictSchema())
	for i := 0; i < 10; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i)), IV(int64(i)))
	}
	snap := r.SnapshotAs("snap")
	cl := r.Clone()
	r.MustInsert(SV("new"), IV(99))
	checkEncoded(t, r)
	d := checkEncoded(t, snap)
	if _, ok := d.Code(0, SV("new")); ok {
		t.Errorf("snapshot encoding sees a value inserted after the snapshot")
	}
	checkEncoded(t, cl)

	// Delete on the source compacts its code vectors; the snapshot
	// shares the old ones and must keep its rows and codes.
	before := append([]Tuple(nil), snap.Rows()...)
	codes := append([]int32(nil), d.Codes(0)...)
	if n := r.Delete(Tuple{SV("k0"), IV(0)}); n != 1 {
		t.Fatalf("Delete = %d, want 1", n)
	}
	checkEncoded(t, r)
	d = checkEncoded(t, snap)
	if !reflect.DeepEqual(snap.Rows(), before) {
		t.Errorf("snapshot rows changed by a Delete on its source")
	}
	if !reflect.DeepEqual(d.Codes(0), codes) {
		t.Errorf("snapshot codes changed by a Delete on its source: %v, want %v", d.Codes(0), codes)
	}
	if r.Contains(Tuple{SV("k0"), IV(0)}) || !snap.Contains(Tuple{SV("k0"), IV(0)}) {
		t.Errorf("deleted row: source still has it or snapshot lost it")
	}
}

// TestDictDeadCodesBounded churns fresh distinct values through
// insert-then-delete: each cycle leaves a dead code behind, and Delete
// must re-encode them away, keeping the dictionary within about twice
// the live size instead of growing with every value ever seen.
func TestDictDeadCodesBounded(t *testing.T) {
	r := New(dictSchema())
	for i := 0; i < 100; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i%10)), IV(int64(i)))
	}
	maxWidth := 0
	for i := 0; i < 5000; i++ {
		tup := Tuple{SV(fmt.Sprintf("fresh%d", i)), IV(int64(1000 + i))}
		if err := r.Insert(tup); err != nil {
			t.Fatal(err)
		}
		if n := r.Delete(tup); n != 1 {
			t.Fatalf("cycle %d: Delete = %d, want 1", i, n)
		}
		d := r.Encoding()
		if d == nil {
			t.Fatalf("cycle %d: encoding lost", i)
		}
		for col := 0; col < 2; col++ {
			maxWidth = max(maxWidth, d.Width(col))
		}
	}
	checkEncoded(t, r)
	if bound := 2*r.Len() + 2; maxWidth > bound {
		t.Errorf("dictionary width reached %d over %d live rows, want <= %d", maxWidth, r.Len(), bound)
	}
	if _, ok := r.Encoding().Code(0, SV("fresh0")); ok {
		t.Errorf("a value deleted thousands of cycles ago still has a code")
	}
}

func TestCodeIndex(t *testing.T) {
	r := New(dictSchema())
	for i := 0; i < 40; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i%5)), IV(int64(i)))
	}
	ci := r.EnsureCodeIndex(0)
	if ci == nil {
		t.Fatal("EnsureCodeIndex = nil on an encoded relation")
	}
	if again := r.EnsureCodeIndex(0); again != ci {
		t.Errorf("EnsureCodeIndex rebuilt instead of returning the cached index")
	}
	d := r.Encoding()
	for code := int32(0); int(code) < d.Width(0); code++ {
		want := r.Lookup(0, d.Value(0, code))
		got := ci.Rows(code)
		if len(got) != len(want) {
			t.Fatalf("code %d: %d rows, want %d", code, len(got), len(want))
		}
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("code %d row %d: id %d, want %d", code, i, got[i], want[i])
			}
		}
	}
	if ci.Rows(int32(d.Width(0))) != nil || ci.Rows(-1) != nil {
		t.Errorf("out-of-dictionary code returned rows")
	}
	// Mutation drops the cache; the rebuilt index covers the new row.
	r.MustInsert(SV("k0"), IV(999))
	ci2 := r.EnsureCodeIndex(0)
	if ci2 == ci {
		t.Errorf("code index not invalidated by Insert")
	}
	code, _ := r.Encoding().Code(0, SV("k0"))
	rows := ci2.Rows(code)
	if len(rows) == 0 || int(rows[len(rows)-1]) != r.Len()-1 {
		t.Errorf("rebuilt index misses the appended row: %v", rows)
	}

	if NewResult(dictSchema()).EnsureCodeIndex(0) != nil {
		t.Errorf("EnsureCodeIndex on an unencoded relation built an index")
	}
}

func TestCodeSet(t *testing.T) {
	s := NewCodeSet(4)
	buf := []int32{1, 2, 3}
	if !s.Add(buf) {
		t.Fatal("first Add = false")
	}
	buf[0], buf[1], buf[2] = 9, 9, 9 // set must have copied
	if !s.Add([]int32{9, 9, 9}) {
		t.Fatal("Add of a fresh vector = false after caller reused the buffer")
	}
	if s.Add([]int32{1, 2, 3}) {
		t.Fatal("duplicate Add = true")
	}
	if s.Add([]int32{9, 9, 9}) {
		t.Fatal("duplicate Add = true")
	}
	if !s.Add([]int32{1, 2, 4}) || !s.Add([]int32{0, 2, 3}) {
		t.Fatal("distinct vectors rejected")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// Cross a slab boundary.
	big := NewCodeSet(16)
	for i := int32(0); i < 3000; i++ {
		if !big.Add([]int32{i, i + 1}) {
			t.Fatalf("vector %d rejected", i)
		}
	}
	for i := int32(0); i < 3000; i++ {
		if big.Add([]int32{i, i + 1}) {
			t.Fatalf("vector %d not found after slab growth", i)
		}
	}
}
