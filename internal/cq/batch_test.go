package cq

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/relation"
)

// This file is the batch kernel's differential harness: the columnar
// kernel, sequential and parallel, is held to the map-bindings
// interpreter (EvalReference) by byte-identical sorted wire encodings
// over randomized unions; relations without an encoding are encoded on
// first use, once, even under concurrent first queries; and the
// dictionary's lazy snapshot clones are raced against concurrent
// base-relation growth. Run with -race.

// sortedWire renders an answer set as the concatenation of each tuple's
// wire encoding in sorted order — a canonical form independent of
// production order, so executions that emit in different orders still
// compare byte-for-byte.
func sortedWire(rows []relation.Tuple) []byte {
	keys := make([][]byte, len(rows))
	for i, t := range rows {
		keys[i] = relation.EncodeTupleBatch([]relation.Tuple{t})
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	var out []byte
	for _, k := range keys {
		out = append(out, k...)
	}
	return out
}

// randomBatchDB builds a database of small binary relations over a
// narrow value domain, so random joins actually match rows.
func randomBatchDB(rng *rand.Rand, nRels int) *relation.Database {
	db := relation.NewDatabase()
	for i := 0; i < nRels; i++ {
		r := relation.New(relation.Schema{
			Name:  fmt.Sprintf("r%d", i),
			Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")},
		})
		for n := rng.Intn(30); n > 0; n-- {
			t := relation.Tuple{
				relation.SV(fmt.Sprintf("v%d", rng.Intn(8))),
				relation.SV(fmt.Sprintf("v%d", rng.Intn(8))),
			}
			if err := r.Insert(t); err != nil {
				panic(err)
			}
		}
		db.Put(r)
	}
	return db
}

// randomBatchQuery generates a safe conjunctive query with a 2-variable
// head over the r0..r(nRels-1) relations.
func randomBatchQuery(rng *rand.Rand, nRels int) Query {
	vars := []string{"X", "Y", "Z", "W"}
	for {
		nAtoms := 1 + rng.Intn(3)
		bound := map[string]bool{}
		body := ""
		for i := 0; i < nAtoms; i++ {
			if i > 0 {
				body += ", "
			}
			args := make([]string, 2)
			for j := range args {
				if rng.Intn(10) < 7 {
					v := vars[rng.Intn(len(vars))]
					args[j] = v
					bound[v] = true
				} else {
					args[j] = fmt.Sprintf("'v%d'", rng.Intn(8))
				}
			}
			body += fmt.Sprintf("r%d(%s, %s)", rng.Intn(nRels), args[0], args[1])
		}
		var free []string
		for _, v := range vars {
			if bound[v] {
				free = append(free, v)
			}
		}
		if len(free) < 2 {
			continue
		}
		h1 := free[rng.Intn(len(free))]
		h2 := free[rng.Intn(len(free))]
		return MustParse(fmt.Sprintf("q(%s, %s) :- %s", h1, h2, body))
	}
}

// referenceUnionWire evaluates the union on the map-bindings interpreter
// and returns the deduplicated sorted wire form plus the distinct count.
func referenceUnionWire(t *testing.T, db *relation.Database, queries []Query) ([]byte, int) {
	t.Helper()
	seen := map[string]relation.Tuple{}
	for _, q := range queries {
		r, err := EvalReference(db, q)
		if err != nil {
			t.Fatalf("EvalReference(%s): %v", q, err)
		}
		for _, row := range r.Rows() {
			seen[row.Key()] = row
		}
	}
	rows := make([]relation.Tuple, 0, len(seen))
	for _, row := range seen {
		rows = append(rows, row)
	}
	return sortedWire(rows), len(rows)
}

func compileAll(t *testing.T, db *relation.Database, queries []Query) []*Plan {
	t.Helper()
	plans := make([]*Plan, len(queries))
	for i, q := range queries {
		p, err := Compile(db, q)
		if err != nil {
			t.Fatalf("Compile(%s): %v", q, err)
		}
		plans[i] = p
	}
	return plans
}

func runUnionWire(t *testing.T, plans []*Plan, opts ExecOptions) []byte {
	t.Helper()
	r, err := MaterializeUnion(context.Background(), plans, opts)
	if err != nil {
		t.Fatalf("MaterializeUnion: %v", err)
	}
	return sortedWire(r.Rows())
}

// TestBatchDifferentialRandom holds the batch kernel to EvalReference
// (byte-identical sorted wire encodings) over randomized unions, in
// sequential and parallel execution.
func TestBatchDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var kernels KernelCounts
	for trial := 0; trial < 120; trial++ {
		const nRels = 3
		db := randomBatchDB(rng, nRels)
		queries := make([]Query, 1+rng.Intn(4))
		for i := range queries {
			queries[i] = randomBatchQuery(rng, nRels)
		}
		want, _ := referenceUnionWire(t, db, queries)
		plans := compileAll(t, db, queries)
		got := runUnionWire(t, plans, ExecOptions{Kernels: &kernels})
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: batch != reference for %v", trial, queries)
		}
		par := runUnionWire(t, plans, ExecOptions{Parallelism: 4})
		if !bytes.Equal(par, want) {
			t.Fatalf("trial %d: parallel != reference for %v", trial, queries)
		}
	}
	if kernels.Batch() == 0 {
		t.Fatal("no branch ever rode the batch kernel — the differential never exercised it")
	}
}

// TestBatchDifferentialLimits checks that limited executions yield
// exactly min(Limit, |answers|) distinct tuples, each drawn from the
// reference answer set, sequentially and in parallel mode.
func TestBatchDifferentialLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		const nRels = 3
		db := randomBatchDB(rng, nRels)
		queries := make([]Query, 1+rng.Intn(3))
		for i := range queries {
			queries[i] = randomBatchQuery(rng, nRels)
		}
		_, total := referenceUnionWire(t, db, queries)
		wantSet := map[string]bool{}
		for _, q := range queries {
			r, err := EvalReference(db, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range r.Rows() {
				wantSet[row.Key()] = true
			}
		}
		plans := compileAll(t, db, queries)
		for _, limit := range []int{1, total/2 + 1, total + 5} {
			for _, opts := range []ExecOptions{
				{Limit: limit},
				{Limit: limit, Parallelism: 4},
			} {
				r, err := MaterializeUnion(context.Background(), plans, opts)
				if err != nil {
					t.Fatalf("limit %d: %v", limit, err)
				}
				want := limit
				if total < want {
					want = total
				}
				if r.Len() != want {
					t.Fatalf("trial %d limit %d opts %+v: got %d tuples, want %d",
						trial, limit, opts, r.Len(), want)
				}
				for _, row := range r.Rows() {
					if !wantSet[row.Key()] {
						t.Fatalf("limited run yielded %v, not a reference answer", row)
					}
				}
			}
		}
	}
}

// unencodedKinds builds, for each kind of relation that carries no
// dictionary encoding until the engine reads it — a NewResult relation,
// a Project result, a Select result — a fresh 40-row binary relation
// named name over a narrow value domain (enough rows that the kernel
// builds code indexes over the lazy encoding).
func unencodedKinds(t *testing.T, name string) map[string]*relation.Relation {
	t.Helper()
	binary := relation.Schema{Name: name,
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")}}
	wide := relation.New(relation.Schema{Name: name,
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b"), relation.Attr("c")}})
	res := relation.NewResult(binary)
	for i := 0; i < 40; i++ {
		a := relation.SV(fmt.Sprintf("v%d", i%7))
		b := relation.SV(fmt.Sprintf("v%d", (i*3+1)%7))
		if err := res.Insert(relation.Tuple{a, b}); err != nil {
			t.Fatal(err)
		}
		if err := wide.Insert(relation.Tuple{a, relation.SV(fmt.Sprintf("k%d", i)), b}); err != nil {
			t.Fatal(err)
		}
	}
	proj, err := wide.Project("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Select(func(relation.Tuple) bool { return true })
	return map[string]*relation.Relation{"NewResult": res, "Project": proj, "Select": sel}
}

// lazyQueries join the relation with itself through an index probe and
// filter it by a constant.
var lazyQueries = []string{
	"q(X, Y) :- r(X, Z), r(Z, Y)",
	"q(X, Y) :- r(X, Y), r(Y, 'v1')",
}

// TestBatchLazyEncoding queries each kind of unencoded relation through
// MaterializeUnion and through Eval. The answers must match
// EvalReference, the first query must leave a current encoding behind,
// and later queries must reuse that Dict rather than rebuild it.
func TestBatchLazyEncoding(t *testing.T) {
	paths := map[string]func(db *relation.Database, q Query) (*relation.Relation, error){
		"MaterializeUnion": func(db *relation.Database, q Query) (*relation.Relation, error) {
			p, err := Compile(db, q)
			if err != nil {
				return nil, err
			}
			return MaterializeUnion(context.Background(), []*Plan{p}, ExecOptions{})
		},
		"Eval": func(db *relation.Database, q Query) (*relation.Relation, error) {
			return Eval(db, q)
		},
	}
	for pathName, run := range paths {
		for kind, r := range unencodedKinds(t, "r") {
			if r.Encoding() != nil {
				t.Fatalf("%s: relation already encoded before its first query", kind)
			}
			db := relation.NewDatabase()
			db.Put(r)
			var first *relation.Dict
			for i, src := range lazyQueries {
				q := MustParse(src)
				want, _ := referenceUnionWire(t, db, []Query{q})
				got, err := run(db, q)
				if err != nil {
					t.Fatalf("%s/%s: %s: %v", pathName, kind, q, err)
				}
				if !bytes.Equal(sortedWire(got.Rows()), want) {
					t.Fatalf("%s/%s: %s: answers != reference", pathName, kind, q)
				}
				d := r.Encoding()
				if d == nil || d.Len() != r.Len() {
					t.Fatalf("%s/%s: after query %d the encoding does not cover the %d rows",
						pathName, kind, i, r.Len())
				}
				if first == nil {
					first = d
				} else if d != first {
					t.Fatalf("%s/%s: query %d rebuilt the encoding", pathName, kind, i)
				}
			}
		}
	}
}

// TestBatchLazyEncodingRace runs eight first queries at once over one
// shared unencoded relation of each kind: each must match
// EvalReference, and all must end up reading one Dict. Run with -race.
func TestBatchLazyEncodingRace(t *testing.T) {
	q := MustParse(lazyQueries[0])
	for kind, r := range unencodedKinds(t, "r") {
		db := relation.NewDatabase()
		db.Put(r)
		want, _ := referenceUnionWire(t, db, []Query{q})
		plans := compileAll(t, db, []Query{q})
		if r.Encoding() != nil {
			t.Fatalf("%s: relation already encoded before its first query", kind)
		}
		const workers = 8
		got := make([][]byte, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				res, err := MaterializeUnion(context.Background(), plans, ExecOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = sortedWire(res.Rows())
			}()
		}
		close(start)
		wg.Wait()
		for w, g := range got {
			if !bytes.Equal(g, want) {
				t.Fatalf("%s: worker %d answers != reference", kind, w)
			}
		}
		d := r.Encoding()
		if d == nil || d.Len() != r.Len() {
			t.Fatalf("%s: encoding does not cover the %d rows", kind, r.Len())
		}
		runUnionWire(t, plans, ExecOptions{})
		if r.Encoding() != d {
			t.Fatalf("%s: a later query rebuilt the encoding", kind)
		}
	}
}

// TestBatchZeroAtomPlan runs the empty-bodied query q() :- , which
// holds exactly once: the kernel must yield one empty tuple, as
// EvalReference does, with and without a limit.
func TestBatchZeroAtomPlan(t *testing.T) {
	db := relation.NewDatabase()
	q := NewQuery("q", nil)
	want, n := referenceUnionWire(t, db, []Query{q})
	if n != 1 {
		t.Fatalf("EvalReference yields %d tuples, want 1", n)
	}
	plans := compileAll(t, db, []Query{q})
	for _, opts := range []ExecOptions{{}, {Limit: 1}} {
		r, err := MaterializeUnion(context.Background(), plans, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if r.Len() != 1 || len(r.Row(0)) != 0 {
			t.Fatalf("opts %+v: got %v, want one empty tuple", opts, r.Rows())
		}
		if !bytes.Equal(sortedWire(r.Rows()), want) {
			t.Fatalf("opts %+v: answers != reference", opts)
		}
	}
}

// TestBatchCancelMidStream aborts a batched execution two ways — the
// consumer returning false, and context cancellation — and checks the
// error contract for each.
func TestBatchCancelMidStream(t *testing.T) {
	// A join big enough that thousands of candidate rows remain after
	// the first answer, so a cancellation poll is guaranteed to fire.
	edges := relation.New(relation.Schema{
		Name:  "e",
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")},
	})
	for i := 0; i < 100; i++ {
		for k := 1; k <= 5; k++ {
			t1 := relation.Tuple{
				relation.SV(fmt.Sprintf("n%d", i)),
				relation.SV(fmt.Sprintf("n%d", (i+k)%100)),
			}
			if err := edges.Insert(t1); err != nil {
				t.Fatal(err)
			}
		}
	}
	db := relation.NewDatabase()
	db.Put(edges)
	q := MustParse("q(X, Y) :- e(X, Z), e(Z, Y)")
	plans := compileAll(t, db, []Query{q})

	yielded := 0
	err := StreamUnionOpts(context.Background(), plans, ExecOptions{}, func(relation.Tuple) bool {
		yielded++
		return yielded < 2
	})
	if err != nil {
		t.Fatalf("consumer stop is not an error, got %v", err)
	}
	if yielded > 2 {
		t.Fatalf("yield kept firing after returning false: %d", yielded)
	}

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err = StreamUnionOpts(ctx, plans, ExecOptions{}, func(relation.Tuple) bool {
		n++
		if n == 1 {
			cancel()
		}
		return true
	})
	if n > 0 && err != context.Canceled {
		t.Fatalf("mid-stream cancel returned %v, want context.Canceled", err)
	}
}

// TestDictGrowthRace executes batched queries over snapshots while the
// base relation keeps growing its dictionary, and runs two executors
// over the same shared snapshot — the lazy clone's once-guarded
// materialization must keep this race-detector clean.
func TestDictGrowthRace(t *testing.T) {
	base := relation.New(relation.Schema{
		Name:  "edge",
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")},
	})
	for i := 0; i < 64; i++ {
		t1 := relation.Tuple{
			relation.SV(fmt.Sprintf("n%d", i%16)),
			relation.SV(fmt.Sprintf("n%d", (i+1)%16)),
		}
		if err := base.Insert(t1); err != nil {
			t.Fatal(err)
		}
	}
	db := relation.NewDatabase()
	db.Put(base.SnapshotAs("edge"))
	plans := compileAll(t, db, []Query{MustParse("q(X, Y) :- edge(X, Z), edge(Z, Y)")})

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		// Grow the base dictionary with novel values while snapshots
		// execute: the clone shares the pre-snapshot prefix only.
		defer wg.Done()
		for i := 0; i < 512; i++ {
			t1 := relation.Tuple{
				relation.SV(fmt.Sprintf("g%d", i)),
				relation.SV(fmt.Sprintf("g%d", i+1)),
			}
			if err := base.Insert(t1); err != nil {
				panic(err)
			}
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, err := MaterializeUnion(context.Background(), plans, ExecOptions{}); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()

	// The snapshot's answers must be unaffected by post-snapshot growth.
	want, _ := referenceUnionWire(t, db, []Query{MustParse("q(X, Y) :- edge(X, Z), edge(Z, Y)")})
	got := runUnionWire(t, plans, ExecOptions{})
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot answers drifted under concurrent base growth")
	}
}
