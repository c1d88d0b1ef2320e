package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func courseSchema() Schema {
	return NewSchema("course", Attr("title"), Attr("instructor"), IntAttr("size"))
}

func TestValueBasics(t *testing.T) {
	if SV("a") == IV(0) {
		t.Error("string and int values must differ")
	}
	if !SV("a").Less(SV("b")) || SV("b").Less(SV("a")) {
		t.Error("string ordering broken")
	}
	if !IV(1).Less(IV(2)) || !FV(1.5).Less(FV(2.5)) {
		t.Error("numeric ordering broken")
	}
	if !IV(5).Less(FV(1)) {
		t.Error("cross-kind ordering should follow Kind")
	}
	if SV("x").Key() == SV("y").Key() {
		t.Error("distinct values must have distinct keys")
	}
	if IV(3).String() != "3" || FV(2.5).String() != "2.5" || SV("hi").String() != "hi" {
		t.Error("String rendering")
	}
	if SV("hi").Quoted() != "'hi'" || IV(3).Quoted() != "3" {
		t.Error("Quoted rendering")
	}
}

func TestParseValue(t *testing.T) {
	if v := ParseValue("'hello'"); v != SV("hello") {
		t.Errorf("ParseValue quoted = %v", v)
	}
	if v := ParseValue("42"); v != IV(42) {
		t.Errorf("ParseValue int = %v", v)
	}
	if v := ParseValue("2.5"); v != FV(2.5) {
		t.Errorf("ParseValue float = %v", v)
	}
	if v := ParseValue("plain"); v != SV("plain") {
		t.Errorf("ParseValue bare = %v", v)
	}
}

func TestTupleOps(t *testing.T) {
	a := Tuple{SV("x"), IV(1)}
	b := Tuple{SV("x"), IV(1)}
	c := Tuple{SV("x"), IV(2)}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("Less broken")
	}
	if a.Key() == c.Key() {
		t.Error("distinct tuples need distinct keys")
	}
	cl := a.Clone()
	cl[0] = SV("mutated")
	if a[0] != SV("x") {
		t.Error("Clone must deep-copy")
	}
	short := Tuple{SV("x")}
	if !short.Less(a) {
		t.Error("prefix tuple should be Less")
	}
	if a.String() != "(x, 1)" {
		t.Errorf("Tuple.String = %q", a.String())
	}
}

func TestSchema(t *testing.T) {
	s := courseSchema()
	if s.Arity() != 3 {
		t.Fatalf("Arity = %d", s.Arity())
	}
	if s.AttrIndex("instructor") != 1 || s.AttrIndex("missing") != -1 {
		t.Error("AttrIndex broken")
	}
	if !reflect.DeepEqual(s.AttrNames(), []string{"title", "instructor", "size"}) {
		t.Errorf("AttrNames = %v", s.AttrNames())
	}
	if err := s.Compatible(Tuple{SV("a"), SV("b"), IV(30)}); err != nil {
		t.Errorf("Compatible rejected valid: %v", err)
	}
	if err := s.Compatible(Tuple{SV("a"), SV("b")}); err == nil {
		t.Error("Compatible accepted wrong arity")
	}
	if err := s.Compatible(Tuple{SV("a"), SV("b"), SV("thirty")}); err == nil {
		t.Error("Compatible accepted wrong type")
	}
	c := s.Clone()
	c.Attrs[0].Name = "changed"
	if s.Attrs[0].Name != "title" {
		t.Error("Clone must deep-copy attrs")
	}
	want := "course(title:string, instructor:string, size:int)"
	if s.String() != want {
		t.Errorf("String = %q", s.String())
	}
}

func TestRelationInsertLookup(t *testing.T) {
	r := New(courseSchema())
	r.MustInsert(SV("DB"), SV("halevy"), IV(40))
	r.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	r.MustInsert(SV("OS"), SV("halevy"), IV(30))
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if err := r.Insert(Tuple{SV("x")}); err == nil {
		t.Error("Insert accepted bad arity")
	}
	ids := r.Lookup(1, SV("halevy"))
	if !reflect.DeepEqual(ids, []int{0, 2}) {
		t.Errorf("scan Lookup = %v", ids)
	}
	r.BuildIndex(1)
	if !r.HasIndex(1) {
		t.Error("HasIndex false after build")
	}
	ids = r.Lookup(1, SV("halevy"))
	if !reflect.DeepEqual(ids, []int{0, 2}) {
		t.Errorf("indexed Lookup = %v", ids)
	}
	// Insert after index build keeps index fresh.
	r.MustInsert(SV("ML"), SV("halevy"), IV(50))
	ids = r.Lookup(1, SV("halevy"))
	if !reflect.DeepEqual(ids, []int{0, 2, 3}) {
		t.Errorf("Lookup after insert = %v", ids)
	}
	if !r.Contains(Tuple{SV("DB"), SV("halevy"), IV(40)}) {
		t.Error("Contains missed existing tuple")
	}
	if r.Contains(Tuple{SV("DB"), SV("halevy"), IV(41)}) {
		t.Error("Contains found absent tuple")
	}
	r.BuildIndex(0)
	if !r.Contains(Tuple{SV("DB"), SV("halevy"), IV(40)}) {
		t.Error("indexed Contains missed existing tuple")
	}
}

func TestRelationDeleteDedup(t *testing.T) {
	r := New(courseSchema())
	row := Tuple{SV("DB"), SV("halevy"), IV(40)}
	r.MustInsert(row...)
	r.MustInsert(row...)
	r.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	if n := r.Delete(row); n != 2 {
		t.Errorf("Delete = %d, want 2", n)
	}
	if r.Len() != 1 {
		t.Errorf("Len after delete = %d", r.Len())
	}
	r.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	r.Dedup()
	if r.Len() != 1 {
		t.Errorf("Len after dedup = %d", r.Len())
	}
}

// TestDeleteDedupReleaseTail checks that compaction leaves no tuple
// referenced by the backing array past Len(), so removed tuples are
// garbage as soon as the caller drops them.
func TestDeleteDedupReleaseTail(t *testing.T) {
	r := New(courseSchema())
	for i := 0; i < 10; i++ {
		r.MustInsert(SV("DB"), SV("halevy"), IV(int64(i%3)))
	}
	checkTail := func(op string) {
		t.Helper()
		for i, row := range r.rows[r.Len():cap(r.rows)] {
			if row != nil {
				t.Errorf("after %s: backing array slot %d (past Len %d) still holds %v", op, r.Len()+i, r.Len(), row)
			}
		}
	}
	if n := r.Delete(Tuple{SV("DB"), SV("halevy"), IV(0)}); n != 4 {
		t.Fatalf("Delete = %d, want 4", n)
	}
	checkTail("Delete")
	r.Dedup()
	if r.Len() != 2 {
		t.Fatalf("Len after Dedup = %d, want 2", r.Len())
	}
	checkTail("Dedup")
}

func TestRelationProjectSelectUnion(t *testing.T) {
	r := New(courseSchema())
	r.MustInsert(SV("DB"), SV("halevy"), IV(40))
	r.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	p, err := r.Project("instructor")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Row(0)[0] != SV("halevy") {
		t.Errorf("Project = %v", p.Rows())
	}
	if _, err := r.Project("nope"); err == nil {
		t.Error("Project accepted unknown attr")
	}
	big := r.Select(func(t Tuple) bool { return t[2].I > 50 })
	if big.Len() != 1 || big.Row(0)[0] != SV("AI") {
		t.Errorf("Select = %v", big.Rows())
	}
	other := New(courseSchema())
	other.MustInsert(SV("OS"), SV("levy"), IV(30))
	if err := r.Union(other); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Errorf("Union Len = %d", r.Len())
	}
	mismatch := New(NewSchema("x", Attr("a")))
	if err := r.Union(mismatch); err == nil {
		t.Error("Union accepted arity mismatch")
	}
}

func TestRelationEqualSort(t *testing.T) {
	a := New(courseSchema())
	a.MustInsert(SV("DB"), SV("halevy"), IV(40))
	a.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	b := New(courseSchema())
	b.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	b.MustInsert(SV("DB"), SV("halevy"), IV(40))
	b.MustInsert(SV("DB"), SV("halevy"), IV(40)) // dup: set-equal anyway
	if !a.Equal(b) {
		t.Error("set equality should ignore order and duplicates")
	}
	b.MustInsert(SV("OS"), SV("levy"), IV(30))
	if a.Equal(b) {
		t.Error("Equal found equality after extra row")
	}
	a.SortRows()
	if a.Row(0)[0] != SV("AI") {
		t.Errorf("SortRows: first = %v", a.Row(0))
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	db.Put(FromTuples(courseSchema(), Tuple{SV("DB"), SV("halevy"), IV(40)}))
	if db.Get("course") == nil || db.Get("missing") != nil {
		t.Error("Get broken")
	}
	r := db.GetOrCreate(NewSchema("people", Attr("name")))
	if r == nil || db.Get("people") == nil {
		t.Error("GetOrCreate failed")
	}
	if again := db.GetOrCreate(NewSchema("people", Attr("name"))); again != r {
		t.Error("GetOrCreate should return existing")
	}
	if !reflect.DeepEqual(db.Names(), []string{"course", "people"}) {
		t.Errorf("Names = %v", db.Names())
	}
	if len(db.Relations()) != 2 {
		t.Errorf("Relations = %v", db.Relations())
	}
	if db.Size() != 1 {
		t.Errorf("Size = %d", db.Size())
	}
	if err := db.Insert("course", Tuple{SV("AI"), SV("etzioni"), IV(60)}); err != nil {
		t.Errorf("Insert: %v", err)
	}
	if err := db.Insert("nope", Tuple{}); err == nil {
		t.Error("Insert into missing relation should fail")
	}
	cl := db.Clone()
	cl.Get("course").MustInsert(SV("X"), SV("y"), IV(1))
	if db.Get("course").Len() != 2 {
		t.Error("Clone must be deep")
	}
}

func TestKeyConstraint(t *testing.T) {
	db := NewDatabase()
	r := New(NewSchema("person", Attr("name"), Attr("phone")))
	r.MustInsert(SV("ann"), SV("111"))
	r.MustInsert(SV("bob"), SV("222"))
	r.MustInsert(SV("ann"), SV("333"))
	db.Put(r)
	k := KeyConstraint{Relation: "person", Attrs: []string{"name"}}
	vs := k.Check(db)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if !reflect.DeepEqual(vs[0].Rows, []int{0, 2}) {
		t.Errorf("violation rows = %v", vs[0].Rows)
	}
	if got := (KeyConstraint{Relation: "missing"}).Check(db); got != nil {
		t.Error("missing relation should yield no violations")
	}
	bad := KeyConstraint{Relation: "person", Attrs: []string{"nope"}}
	if got := bad.Check(db); len(got) != 1 {
		t.Errorf("unknown attr should report one violation, got %v", got)
	}
}

func TestForeignKey(t *testing.T) {
	db := NewDatabase()
	courses := New(NewSchema("course", Attr("title"), Attr("dept")))
	courses.MustInsert(SV("DB"), SV("cs"))
	courses.MustInsert(SV("Anatomy"), SV("med"))
	depts := New(NewSchema("dept", Attr("name")))
	depts.MustInsert(SV("cs"))
	db.Put(courses)
	db.Put(depts)
	fk := ForeignKey{FromRelation: "course", FromAttr: "dept", ToRelation: "dept", ToAttr: "name"}
	vs := fk.Check(db)
	if len(vs) != 1 || vs[0].Rows[0] != 1 {
		t.Errorf("fk violations = %v", vs)
	}
}

func TestSingleValued(t *testing.T) {
	db := NewDatabase()
	r := New(NewSchema("phone", Attr("person"), Attr("number")))
	r.MustInsert(SV("ann"), SV("111"))
	r.MustInsert(SV("ann"), SV("111")) // duplicate, not a conflict
	r.MustInsert(SV("bob"), SV("222"))
	r.MustInsert(SV("bob"), SV("999")) // conflict
	db.Put(r)
	sv := SingleValued{Relation: "phone", KeyAttr: "person", ValAttr: "number"}
	vs := sv.Check(db)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if len(vs[0].Rows) != 2 {
		t.Errorf("violation rows = %v", vs[0].Rows)
	}
	if vs[0].String() == "" {
		t.Error("violation string empty")
	}
}

func TestLookupMatchesScanProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(40)
			rows := make([][2]int, n)
			for i := range rows {
				rows[i] = [2]int{r.Intn(5), r.Intn(5)}
			}
			vals[0] = reflect.ValueOf(rows)
			vals[1] = reflect.ValueOf(r.Intn(5))
		},
	}
	f := func(rows [][2]int, probe int) bool {
		rel := New(NewSchema("t", IntAttr("a"), IntAttr("b")))
		for _, row := range rows {
			rel.MustInsert(IV(int64(row[0])), IV(int64(row[1])))
		}
		scan := rel.Lookup(0, IV(int64(probe)))
		rel.BuildIndex(0)
		idx := rel.Lookup(0, IV(int64(probe)))
		return reflect.DeepEqual(scan, idx)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// BenchmarkRelationDelete prices one insert-then-delete cycle of a
// fresh row on a 50k-row relation shaped like the skewed-join fact
// table (64 keys, 97 payloads): the serving peer's write path and the
// coordinator's replica apply both pay it.
func BenchmarkRelationDelete(b *testing.B) {
	r := New(NewSchema("fact", Attr("key"), Attr("payload")))
	for i := 0; i < 50000; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i%64)), SV(fmt.Sprintf("p%d", i%97)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Tuple{SV("k1"), SV(fmt.Sprintf("x%d", i))}
		if err := r.Insert(t); err != nil {
			b.Fatal(err)
		}
		if n := r.Delete(t); n != 1 {
			b.Fatalf("Delete = %d, want 1", n)
		}
	}
}
