package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/relation"
)

// This file holds the correctness checks every answer goes through.
// A check that fails counts the operation as failed; nothing here is
// skipped in either run.

// checkLookup verifies a lookup answer: exactly one tuple, the
// instructor the generator stored with the title.
func checkLookup(rel *relation.Relation, title, want string) error {
	rows := rel.Rows()
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].S != want {
		return fmt.Errorf("lookup %q: got %v, want [[%s]]", title, rows, want)
	}
	return nil
}

// The write workloads' writer alternates inserts and deletes of extra
// fact rows, each with a unique payload "w<j>" and a key the
// coordinator's dim relation holds, so every write changes the answer.
// Before the first write the relation holds extra row 0. Write k (k ≥ 1)
// inserts row (k+1)/2 when k is odd and deletes row k/2-1 when k is
// even, so the extra rows live after write k are {k/2} for even k and
// {(k-1)/2, (k+1)/2} for odd k: each state is distinct, and an answer
// names the write it reflects.

// Indexes of per-operation write statistics.
const (
	opInsert = 0
	opDelete = 1
)

// writeOp reports what write k does: insert or delete extra row j.
func writeOp(k int) (insert bool, j int) {
	if k%2 == 1 {
		return true, (k + 1) / 2
	}
	return false, k/2 - 1
}

// extraPayload is extra row j's payload.
func extraPayload(j int) string { return "w" + strconv.Itoa(j) }

// joinOracle checks answers of q(P, L) :- fact(K, P), dim(K, L).
type joinOracle struct {
	base     map[[2]string]bool // the answer without extra rows
	labelOf  func(j int) string // the label extra row j must join to
	baseRows int
}

func newJoinOracle(base *relation.Relation, labelOf func(j int) string) *joinOracle {
	o := &joinOracle{base: make(map[[2]string]bool), labelOf: labelOf}
	for _, t := range base.Rows() {
		o.base[[2]string{t[0].S, t[1].S}] = true
	}
	o.baseRows = len(o.base)
	return o
}

// stateOf returns the write index an answer reflects, or an error when
// the answer equals the expected answer of no state: a missing or
// unexpected base tuple, an extra row with the wrong label, or a set of
// extra rows no write sequence produces.
func (o *joinOracle) stateOf(rel *relation.Relation) (int, error) {
	seen := 0
	var extras []int
	for _, t := range rel.Rows() {
		p, l := t[0].S, t[1].S
		if rest, ok := strings.CutPrefix(p, "w"); ok {
			j, err := strconv.Atoi(rest)
			if err != nil || j < 0 {
				return 0, fmt.Errorf("answer has malformed extra payload %q", p)
			}
			if want := o.labelOf(j); l != want {
				return 0, fmt.Errorf("extra row %d joined to label %q, want %q", j, l, want)
			}
			extras = append(extras, j)
			continue
		}
		if !o.base[[2]string{p, l}] {
			return 0, fmt.Errorf("unexpected answer (%s, %s)", p, l)
		}
		seen++
	}
	if seen != o.baseRows {
		return 0, fmt.Errorf("answer has %d of %d base tuples", seen, o.baseRows)
	}
	sort.Ints(extras)
	switch {
	case len(extras) == 1:
		return 2 * extras[0], nil
	case len(extras) == 2 && extras[1] == extras[0]+1:
		return 2*extras[0] + 1, nil
	}
	return 0, fmt.Errorf("extra rows %v match no write state", extras)
}

// visibility tracks, for the writes of one phase, when each committed
// and when an answer first reflected it. The writer and the reader run
// on different goroutines.
type visibility struct {
	mu      sync.Mutex
	first   int // first write index of the phase
	started int // highest write index started
	seen    int // highest state index an answer reflected
	commit  []time.Time
	visible []time.Time
	errs    []error
}

// newVisibility tracks writes after state index k0, which answers
// already reflect.
func newVisibility(k0 int) *visibility {
	return &visibility{first: k0 + 1, started: k0, seen: k0}
}

// start records that write k is about to start.
func (v *visibility) start(k int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.started = k
	v.commit = append(v.commit, time.Time{})
	v.visible = append(v.visible, time.Time{})
}

// committed records write k's return, or its failure.
func (v *visibility) committed(k int, at time.Time, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err != nil {
		v.errs = append(v.errs, fmt.Errorf("write %d: %w", k, err))
		return
	}
	v.commit[k-v.first] = at
}

// observe records an answer, completed at at, that reflects state k.
// An answer older than one already seen, or reflecting a write not yet
// started, is an error.
func (v *visibility) observe(k int, at time.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if k < v.seen {
		return fmt.Errorf("answer reflects write %d after one reflected write %d", k, v.seen)
	}
	if k > v.started {
		return fmt.Errorf("answer reflects write %d, only %d started", k, v.started)
	}
	for i := v.seen + 1; i <= k; i++ {
		v.visible[i-v.first] = at
	}
	v.seen = k
	return nil
}

// allVisible reports whether every started write has been reflected.
func (v *visibility) allVisible() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.seen >= v.started
}

// result returns each committed write's commit-to-visible time, per
// operation, and one failure per write that failed, was never
// reflected, or was reflected later than timeout after it committed.
func (v *visibility) result(timeout time.Duration) (fresh [2][]time.Duration, failures []error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	failures = append(failures, v.errs...)
	for i := range v.commit {
		c, vis := v.commit[i], v.visible[i]
		switch {
		case c.IsZero():
			// failed write: already counted through errs
		case vis.IsZero():
			failures = append(failures, fmt.Errorf("write %d never became visible", v.first+i))
		default:
			d := max(vis.Sub(c), 0) // the answer may complete before the writer returns
			if d > timeout {
				failures = append(failures, fmt.Errorf("write %d visible after %v (limit %v)", v.first+i, d, timeout))
				continue
			}
			op := opDelete
			if insert, _ := writeOp(v.first + i); insert {
				op = opInsert
			}
			fresh[op] = append(fresh[op], d)
		}
	}
	return fresh, failures
}

// sameAnswers compares two relations as sets of tuples.
func sameAnswers(got, want *relation.Relation) error {
	key := func(r *relation.Relation) []string {
		set := make(map[string]bool, r.Len())
		for _, t := range r.Rows() {
			set[fmt.Sprint(t)] = true
		}
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	g, w := key(got), key(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d answers, reference has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("answer %q differs from reference %q", g[i], w[i])
		}
	}
	return nil
}
