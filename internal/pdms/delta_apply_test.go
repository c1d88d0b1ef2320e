package pdms

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// replicaState is everything a rejected batch must leave unchanged: the
// bag of rows, the mutation version, the row count, and the dictionary
// encoding (its identity and every code vector).
type replicaState struct {
	bag   []byte
	ver   uint64
	rows  int
	dict  *relation.Dict
	codes [][]int32
}

func captureReplica(r *relation.Relation) replicaState {
	st := replicaState{bag: sortedWire(r.Rows()), ver: r.Version(), rows: r.Len(), dict: r.Encoding()}
	for col := 0; col < r.Schema.Arity(); col++ {
		st.codes = append(st.codes, slices.Clone(st.dict.Codes(col)))
	}
	return st
}

func (st replicaState) check(t *testing.T, r *relation.Relation, when string) {
	t.Helper()
	now := captureReplica(r)
	if !bytes.Equal(now.bag, st.bag) {
		t.Errorf("%s: replica rows changed", when)
	}
	if now.ver != st.ver || now.rows != st.rows {
		t.Errorf("%s: replica (version, rows) = (%d, %d), want (%d, %d)", when, now.ver, now.rows, st.ver, st.rows)
	}
	if now.dict != st.dict {
		t.Errorf("%s: replica encoding replaced", when)
	}
	for col := range st.codes {
		if !slices.Equal(now.codes[col], st.codes[col]) {
			t.Errorf("%s: column %d codes changed", when, col)
		}
	}
}

func subjectReplica() *relation.Relation {
	r := relation.New(relation.NewSchema("subject", relation.Attr("name"), relation.IntAttr("enrollment")))
	for _, row := range []relation.Tuple{
		subjectRow("AI", 80), subjectRow("AI", 80), subjectRow("Logic", 10), subjectRow("Robotics", 25)} {
		if err := r.Insert(row); err != nil {
			panic(err)
		}
	}
	return r
}

func ins(ver uint64, rows int, t relation.Tuple) relation.ChangeRecord {
	return relation.ChangeRecord{Op: relation.ChangeInsert, Rel: "subject", Ver: ver, Rows: rows, Tuple: t}
}

func del(ver uint64, rows int, t relation.Tuple) relation.ChangeRecord {
	return relation.ChangeRecord{Op: relation.ChangeDelete, Rel: "subject", Ver: ver, Rows: rows, Tuple: t}
}

// verifyThenReplay runs a batch through the production apply sequence —
// verifyDelta, then, only when it accepts the batch, the shared replay —
// with r as mit's subject replica at fingerprint have, and returns the
// fingerprint the replica landed on.
func verifyThenReplay(r *relation.Relation, have, want remoteFP, recs []relation.ChangeRecord) (remoteFP, error) {
	fp, err := verifyDelta(r, "subject", have, want, recs)
	if err != nil {
		return remoteFP{}, err
	}
	mirror := NewPeer("mit", r.Schema)
	mirror.Store.Put(r)
	rp := &RemotePeer{name: "mit", mirror: mirror, replicas: map[string]replica{"subject": {fp: have}}}
	NewNetwork().replay(rp, "subject", recs, replica{fp: fp})
	return rp.replicas["subject"].fp, nil
}

// TestApplyDeltaRejectsAtomically feeds verifyThenReplay batches that
// fail verification — most of them only after records that would have
// applied cleanly — and requires each to leave the replica exactly as
// it was. The replica holds 4 rows at remote version 10.
func TestApplyDeltaRejectsAtomically(t *testing.T) {
	have := remoteFP{ver: 10, rows: 4}
	ai := subjectRow("AI", 80)
	for _, tc := range []struct {
		name string
		want remoteFP
		recs []relation.ChangeRecord
	}{
		{"wrong relation", remoteFP{}, []relation.ChangeRecord{
			ins(11, 5, subjectRow("DB", 60)),
			{Op: relation.ChangeInsert, Rel: "course", Ver: 12, Rows: 6, Tuple: subjectRow("OS", 30)}}},
		{"non-advancing version", remoteFP{}, []relation.ChangeRecord{
			ins(11, 5, subjectRow("DB", 60)), ins(11, 6, subjectRow("OS", 30))}},
		{"version at the replica's", remoteFP{}, []relation.ChangeRecord{ins(10, 5, subjectRow("DB", 60))}},
		{"bad rows on the second record", remoteFP{}, []relation.ChangeRecord{
			ins(11, 5, subjectRow("DB", 60)), del(12, 4, ai)}},
		// The delete removes both replica copies and the batch's own
		// insert: 5-3 = 2 rows, not the 3 left by counting the replica's
		// copies alone.
		{"delete ignoring the batch's own insert", remoteFP{}, []relation.ChangeRecord{
			ins(11, 5, ai), del(12, 3, ai)}},
		{"unknown op", remoteFP{}, []relation.ChangeRecord{
			ins(11, 5, subjectRow("DB", 60)),
			{Op: relation.ChangeSchema, Rel: "subject", Ver: 12, Rows: 5}}},
		{"schema-incompatible tuple", remoteFP{}, []relation.ChangeRecord{
			ins(11, 5, subjectRow("DB", 60)),
			ins(12, 6, relation.Tuple{relation.IV(1), relation.IV(2)})}},
		{"stops short of want", remoteFP{ver: 13, rows: 6}, []relation.ChangeRecord{
			ins(11, 5, subjectRow("DB", 60)), ins(12, 6, subjectRow("OS", 30))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := subjectReplica()
			before := captureReplica(r)
			if fp, err := verifyThenReplay(r, have, tc.want, tc.recs); err == nil {
				t.Fatalf("verifyDelta accepted the batch, landing on %+v", fp)
			}
			before.check(t, r, "after a rejected batch")
		})
	}
}

// TestApplyDeltaBagAccounting pins the verifier's row accounting to
// Relation's bag semantics: a delete removes the replica's copies and
// the batch's own earlier inserts, and after a delete only later
// inserts count.
func TestApplyDeltaBagAccounting(t *testing.T) {
	r := subjectReplica()
	ai, logic := subjectRow("AI", 80), subjectRow("Logic", 10)
	recs := []relation.ChangeRecord{
		ins(11, 5, ai),    // 3 copies of ai
		del(12, 2, ai),    // all 3 go
		ins(13, 3, ai),    // 1 copy again
		ins(14, 4, ai),    // 2 copies
		del(15, 2, ai),    // both go
		del(16, 1, logic), // the replica's only copy
		ins(17, 2, subjectRow("DB", 60)),
	}
	fp, err := verifyThenReplay(r, remoteFP{ver: 10, rows: 4}, remoteFP{ver: 17}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if fp != (remoteFP{ver: 17, rows: 2}) {
		t.Errorf("landed on %+v, want {17 2}", fp)
	}
	want := []relation.Tuple{subjectRow("Robotics", 25), subjectRow("DB", 60)}
	if !bytes.Equal(sortedWire(r.Rows()), sortedWire(want)) {
		t.Errorf("replica rows = %v, want %v", r.Rows(), want)
	}
	if d := r.Encoding(); d == nil || d.Len() != r.Len() {
		t.Errorf("replica encoding not current after the apply")
	}
}

// corruptRows serves peers through a Loopback but overstates the row
// count of the last change record in every Delta response and pushed
// batch, so each batch fails verification on its final record, after
// records that would have applied cleanly.
type corruptRows struct{ *Loopback }

func corruptLast(recs []relation.ChangeRecord) {
	if len(recs) > 0 {
		recs[len(recs)-1].Rows += 7
	}
}

func (c corruptRows) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	recs, ok, err := c.Loopback.Delta(ctx, peer, rel, since)
	corruptLast(recs)
	return recs, ok, err
}

func (c corruptRows) Subscribe(ctx context.Context, peer string, since map[string]uint64,
	ack func(PeerState) error, deliver func([]relation.ChangeRecord) error) error {
	return c.Loopback.Subscribe(ctx, peer, since, ack, func(recs []relation.ChangeRecord) error {
		corruptLast(recs)
		return deliver(recs)
	})
}

// corruptDeltaNetwork mirrors a durable "mit" peer behind corruptRows
// into a coordinator whose local "berkeley" peer maps to it, and fills
// the replica with one cold query.
func corruptDeltaNetwork(t *testing.T) (*Network, *Peer, cq.Query) {
	t.Helper()
	m, err := OpenDurablePeer("mit", t.TempDir(),
		relation.NewSchema("subject", relation.Attr("name"), relation.IntAttr("enrollment")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.ClosePersist() })
	for _, row := range []relation.Tuple{subjectRow("AI", 80), subjectRow("Logic", 10)} {
		if err := m.Insert("subject", row); err != nil {
			t.Fatal(err)
		}
	}
	n := NewNetwork()
	if err := n.AddPeer(NewPeer("berkeley", relation.NewSchema("course",
		relation.Attr("title"), relation.IntAttr("size")))); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRemotePeer(context.Background(), "mit", corruptRows{NewLoopback(m)}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddMapping(glav.MustNew("m2b", "mit", cq.MustParse("m(T, S) :- subject(T, S)"),
		"berkeley", cq.MustParse("m(T, S) :- course(T, S)"))); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("q(T) :- course(T, S)")
	if _, err := n.Answer("berkeley", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	if scans, _, _ := n.RemoteSyncCounts(); scans != 1 {
		t.Fatalf("cold fill: %d scans, want 1", scans)
	}
	return n, m, q
}

// replicaOf returns mit's subject replica and whether its fingerprint
// is still recorded, read under the remote lock.
func replicaOf(n *Network) (*relation.Relation, bool) {
	n.remoteMu.RLock()
	defer n.remoteMu.RUnlock()
	rp := n.remotes["mit"]
	_, ok := rp.replicas["subject"]
	return rp.mirror.Store.Get("subject"), ok
}

// TestDeltaRejectedFallsBackToScan: a delta whose second record fails
// verification leaves the replica it was replayed against untouched,
// and the fetch falls back to one full scan that answers correctly.
func TestDeltaRejectedFallsBackToScan(t *testing.T) {
	n, m, q := corruptDeltaNetwork(t)
	old, _ := replicaOf(n)
	before := captureReplica(old)
	for _, row := range []relation.Tuple{subjectRow("DB", 60), subjectRow("OS", 30)} {
		if err := m.Insert("subject", row); err != nil {
			t.Fatal(err)
		}
	}
	res, err := n.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 4 {
		t.Errorf("%d answers after the fallback, want 4", res.Answers.Len())
	}
	if scans, deltas, _ := n.RemoteSyncCounts(); scans != 2 || deltas != 0 {
		t.Errorf("sync scans %d deltas %d, want 2 and 0: the rejected delta must fall back to a scan", scans, deltas)
	}
	before.check(t, old, "replica the rejected delta was verified against")
}

// TestPushRejectedBatchDropsFingerprint: a pushed batch that fails
// verification leaves the replica untouched and drops its fingerprint,
// so the next query heals it through one poll-path scan.
func TestPushRejectedBatchDropsFingerprint(t *testing.T) {
	n, m, q := corruptDeltaNetwork(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.StartPush(ctx, "mit"); err != nil {
		t.Fatal(err)
	}
	defer n.StopPush("mit")
	if err := n.WaitPushLive(ctx, "mit"); err != nil {
		t.Fatal(err)
	}
	old, _ := replicaOf(n)
	before := captureReplica(old)
	if err := m.Insert("subject", subjectRow("DB", 60)); err != nil {
		t.Fatal(err)
	}
	for {
		if r, fetched := replicaOf(n); !fetched {
			if r != old {
				t.Fatal("push path replaced the replica")
			}
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("the corrupted push batch never dropped the replica's fingerprint")
		case <-time.After(time.Millisecond):
		}
	}
	before.check(t, old, "after a rejected push batch")
	res, err := n.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 3 {
		t.Errorf("%d answers after the heal, want 3", res.Answers.Len())
	}
	if scans, _, _ := n.RemoteSyncCounts(); scans != 2 {
		t.Errorf("%d scans, want 2: the dropped fingerprint must heal through one scan", scans)
	}
}
