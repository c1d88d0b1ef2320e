package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
)

func answers(rows ...[2]string) *relation.Relation {
	r := relation.NewResult(relation.NewSchema("q", relation.Attr("P"), relation.Attr("L")))
	for _, row := range rows {
		if err := r.Insert(relation.Tuple{relation.SV(row[0]), relation.SV(row[1])}); err != nil {
			panic(err)
		}
	}
	return r
}

func TestCheckLookupRejectsWrongAnswer(t *testing.T) {
	one := relation.NewResult(relation.NewSchema("q", relation.Attr("I")))
	if err := one.Insert(relation.Tuple{relation.SV("Ada")}); err != nil {
		t.Fatal(err)
	}
	if err := checkLookup(one, "t", "Ada"); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := checkLookup(one, "t", "Bob"); err == nil {
		t.Error("wrong instructor accepted")
	}
	if err := one.Insert(relation.Tuple{relation.SV("Bob")}); err != nil {
		t.Fatal(err)
	}
	if err := checkLookup(one, "t", "Ada"); err == nil {
		t.Error("answer with an extra tuple accepted")
	}
}

func TestWriteStatesAreDistinct(t *testing.T) {
	live := map[int]bool{0: true}
	seen := map[string]int{}
	for k := 0; k <= 40; k++ {
		if k > 0 {
			insert, j := writeOp(k)
			if insert == live[j] {
				t.Fatalf("write %d: insert=%v of row %d, live=%v", k, insert, j, live[j])
			}
			live[j] = insert
		}
		var key []string
		for j := 0; j <= k; j++ {
			if live[j] {
				key = append(key, extraPayload(j))
			}
		}
		s := strings.Join(key, ",")
		if prev, dup := seen[s]; dup {
			t.Fatalf("states %d and %d both hold %s", prev, k, s)
		}
		seen[s] = k
	}
}

func TestJoinOracle(t *testing.T) {
	base := answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"})
	label := func(j int) string { return "L" + extraPayload(j) }
	o := newJoinOracle(base, label)
	row := func(j int) [2]string { return [2]string{extraPayload(j), label(j)} }
	for _, c := range []struct {
		name string
		rel  *relation.Relation
		want int
		ok   bool
	}{
		{"initial state", answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"}, row(0)), 0, true},
		{"after an insert", answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"}, row(3), row(4)), 7, true},
		{"after a delete", answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"}, row(4)), 8, true},
		{"missing base tuple", answers([2]string{"p1", "l1"}, row(4)), 0, false},
		{"unexpected tuple", answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"}, [2]string{"p9", "l1"}, row(4)), 0, false},
		{"wrong label", answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"}, [2]string{"w4", "l1"}), 0, false},
		{"no extra row", answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"}), 0, false},
		{"rows no write leaves live", answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"}, row(2), row(4)), 0, false},
	} {
		got, err := o.stateOf(c.rel)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("%s: state %d, %v; want %d", c.name, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted as state %d", c.name, got)
		}
	}
}

func TestVisibilityCountsMissedAndLateWrites(t *testing.T) {
	t0 := time.Unix(1000, 0)
	v := newVisibility(10)
	for k := 11; k <= 14; k++ {
		v.start(k)
	}
	v.committed(11, t0, nil)
	v.committed(12, t0, nil)
	v.committed(13, t0, nil)
	v.committed(14, t0, errTest)
	if err := v.observe(11, t0.Add(-time.Millisecond)); err != nil { // answer completes before the writer returns
		t.Fatal(err)
	}
	if err := v.observe(12, t0.Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := v.observe(11, t0.Add(4*time.Second)); err == nil {
		t.Error("an answer older than one already seen was accepted")
	}
	if err := v.observe(15, t0.Add(4*time.Second)); err == nil {
		t.Error("an answer reflecting a write never started was accepted")
	}
	if v.allVisible() {
		t.Error("writes 13 and 14 are not visible yet")
	}
	fresh, failures := v.result(2 * time.Second)
	// 12 visible too late, 13 never visible, 14 failed.
	if len(failures) != 3 {
		t.Errorf("failures = %v, want 3", failures)
	}
	if len(fresh[opInsert]) != 1 || fresh[opInsert][0] != 0 || len(fresh[opDelete]) != 0 {
		t.Errorf("fresh = %v, want write 11 at 0", fresh)
	}
}

func TestSameAnswers(t *testing.T) {
	a := answers([2]string{"p1", "l1"}, [2]string{"p2", "l2"})
	if err := sameAnswers(a, answers([2]string{"p2", "l2"}, [2]string{"p1", "l1"})); err != nil {
		t.Errorf("equal sets reported different: %v", err)
	}
	if err := sameAnswers(a, answers([2]string{"p1", "l1"}, [2]string{"p2", "l3"})); err == nil {
		t.Error("different answers reported equal")
	}
	if err := sameAnswers(a, answers([2]string{"p1", "l1"})); err == nil {
		t.Error("missing answer not reported")
	}
}

type testError struct{}

func (testError) Error() string { return "injected" }

var errTest error = testError{}
