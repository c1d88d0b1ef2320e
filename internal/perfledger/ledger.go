// Package perfledger measures and records the serving-path performance
// ledger: a small JSON document (the BENCH_N.json trajectory at the
// repo root, one per PR, resolved by Latest) holding the warm,
// degraded, and recovery latencies of the E2/16 workload, written by
// `revere bench` and checked by the repo-root TestPerfLedgerGate so a
// perf regression fails the build instead of rotting silently in a
// hand-copied README table.
//
// Every measurement here is a real testing.Benchmark run over the same
// deterministic workload the benchmarks in bench_test.go use
// (16-peer E2 chain, seed 42, 5 rows/peer), so ledger numbers and
// `go test -bench` numbers are directly comparable.
package perfledger

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/faults"
	"repro/internal/glav"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Ledger is the machine-readable perf record. Benches maps a stable
// bench name to its measurement; names are part of the gate contract
// (TestPerfLedgerGate fails when a required name is missing).
type Ledger struct {
	// Schema versions the ledger format itself.
	Schema int `json:"schema"`
	// PR is the pull-request number the baseline was recorded under.
	PR int `json:"pr"`
	// GoVersion records the toolchain that produced the numbers.
	GoVersion string `json:"go_version"`
	// Benches holds one measurement per stable bench name.
	Benches map[string]Bench `json:"benches"`
}

// Bench is one recorded measurement.
type Bench struct {
	// N is the iteration count the benchmark settled on.
	N int `json:"n"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// Answers is the answer-set size each operation produced (a
	// correctness cross-check: every placement must answer in full).
	Answers int `json:"answers"`
	// RetriesPerOp is the mean retry count one operation spent (only
	// meaningful for the degraded bench; the down-peer fast path keeps
	// it at zero).
	RetriesPerOp float64 `json:"retries_per_op"`
	// WireBytesPerOp is the mean framed bytes one operation moved over
	// the transport (only recorded by the cold-remote and push-fanout
	// benches, where bytes on the wire are the measured quantity).
	WireBytesPerOp float64 `json:"wire_bytes_per_op,omitempty"`
	// StateProbesPerOp is the mean per-operation State probe count (only
	// recorded by the push-fanout bench, whose acceptance property is
	// that a live subscription answers watch iterations with zero
	// probes).
	StateProbesPerOp float64 `json:"state_probes_per_op,omitempty"`
}

// The stable bench names the ledger records and the gate requires.
const (
	// BenchWarm is the all-local warm E2/16 path — the regression gate's
	// primary target (the tax every PR must not grow).
	BenchWarm = "warm_e2_16"
	// BenchWarmRemote is the warm E2/16 path with the upper half of the
	// peers behind a loopback transport: the warm path plus one
	// freshness fingerprint probe per remote peer.
	BenchWarmRemote = "warm_remote_loopback_16"
	// BenchDegraded is the warm stale-serving path: one remote peer
	// blacked out and marked down, queries running with AllowStale. The
	// down-peer fast path makes this comparable to BenchWarmRemote with
	// one probe fewer.
	BenchDegraded = "degraded_stale_16"
	// BenchRecovery is the resync path a recovered peer pays: every
	// cache invalidated, so one operation re-probes, re-fetches, and
	// re-plans from scratch over loopback.
	BenchRecovery = "recovery_resync_16"
	// BenchSkewed is the engine-level Zipf-skewed fact ⋈ dim join — the
	// adversarial case for the batch kernel's translation memos and
	// code-vector dedup (a few hot codes, a long tail).
	BenchSkewed = "skewed_join"
	// BenchWarmBatch is the warm E2/16 path measured through the cursor
	// (Network.Query + Materialize) rather than Network.Answer.
	BenchWarmBatch = "warm_e2_16_batch"
	// BenchColdShip is the cold remote skewed join with plan shipping:
	// every operation drops all caches, then refreshes the remote 50k-row
	// fact relation by shipping the bound sub-plan — O(answers) on the
	// wire. Its WireBytesPerOp is the acceptance quantity.
	BenchColdShip = "cold_remote_shipplan"
	// BenchColdMirror is the same cold remote skewed join with shipping
	// off: every operation mirrors the full 50k-row relation —
	// O(relation) on the wire, the baseline BenchColdShip must beat by
	// at least 10x (Run enforces the ratio).
	BenchColdMirror = "cold_remote_mirror"
	// BenchPushFanout is the subscribed watch iteration: the remote fact
	// relation mirrored once, then a live push subscription keeps it
	// current — each operation inserts one row at the serving peer and
	// deletes the row the previous operation inserted, waits for the
	// push apply, and re-queries. Run enforces its
	// acceptance bounds: zero State probes per operation and
	// O(changed-rows) wire bytes; TestPerfLedgerGate re-measures its
	// allocations, which stay O(changed rows) because the push apply
	// catches the replica up in place. The insert-delete pair keeps the
	// relation and the answer set the same size however many operations
	// the benchmark runs, so allocs/op do not depend on host speed.
	BenchPushFanout = "push_fanout"
)

// RequiredBenches is the bench-name contract shared by `revere bench`
// (which must record them all) and TestPerfLedgerGate (which fails when
// the committed ledger is missing one).
var RequiredBenches = []string{
	BenchWarm, BenchWarmRemote, BenchDegraded, BenchRecovery,
	BenchSkewed, BenchWarmBatch, BenchColdShip, BenchColdMirror,
	BenchPushFanout,
}

// CurrentPR is the PR number `revere bench` stamps into the ledger it
// writes (and the N of the default BENCH_N.json output name). Bump it
// each PR that regenerates the ledger; the gate keys on Latest, so old
// ledgers stay behind as the committed perf trajectory.
const CurrentPR = 13

// Latest resolves the newest BENCH_N.json in dir — the baseline
// TestPerfLedgerGate compares a live measurement against, so the gate
// re-anchors itself every PR that writes a new ledger instead of
// hard-coding a file name that rots.
func Latest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &n); err != nil || e.IsDir() {
			continue
		}
		if fmt.Sprintf("BENCH_%d.json", n) != e.Name() {
			continue // reject partial matches like BENCH_3.json.bak
		}
		if n > bestN {
			best, bestN = filepath.Join(dir, e.Name()), n
		}
	}
	if bestN < 0 {
		return "", fmt.Errorf("perfledger: no BENCH_N.json ledger in %s", dir)
	}
	return best, nil
}

// Load reads a ledger from path.
func Load(path string) (*Ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("perfledger: parsing %s: %w", path, err)
	}
	return &l, nil
}

// Save writes the ledger to path, pretty-printed so diffs review well.
func (l *Ledger) Save(path string) error {
	raw, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// record converts a benchmark result into a ledger entry.
func record(r testing.BenchmarkResult, answers int, retries int64) Bench {
	b := Bench{
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Answers:     answers,
	}
	if r.N > 0 {
		b.RetriesPerOp = float64(retries) / float64(r.N)
	}
	return b
}

// e2Spec is the shared E2/16 workload every ledger bench runs over.
func e2Spec() workload.NetworkSpec {
	return workload.NetworkSpec{Topology: workload.Chain, Peers: 16, Seed: 42, RowsPerPeer: 5}
}

// ledgerPolicy is the retry policy the degraded benches query under:
// fast backoff so the one marking query converges immediately, and a
// per-attempt timeout so nothing can hang the bench runner.
func ledgerPolicy() pdms.RetryPolicy {
	return pdms.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, OpTimeout: 2 * time.Second, Budget: 8}
}

// WarmE2 measures the all-local warm E2/16 answer path — the gate's
// regression target.
func WarmE2() (Bench, error) {
	g, err := workload.GenNetwork(e2Spec())
	if err != nil {
		return Bench{}, err
	}
	q := g.TitleQuery(0)
	opts := pdms.ReformOptions{MaxDepth: 17}
	if _, err := g.Net.Answer(workload.PeerName(0), q, opts); err != nil {
		return Bench{}, err
	}
	answers := 0
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := g.Net.Answer(workload.PeerName(0), q, opts)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			answers = res.Answers.Len()
		}
	})
	if benchErr != nil {
		return Bench{}, benchErr
	}
	return record(r, answers, 0), nil
}

// remoteCoordinator builds the E2/16 network with the upper eight peers
// behind a loopback transport wrapped in the given fault decorator
// (pass a zero faults.Config for a clean wire), returning the
// coordinator, the fault handle, and the warm request.
func remoteCoordinator(fcfg faults.Config) (*pdms.Network, *faults.Transport, pdms.Request, error) {
	g, err := workload.GenNetwork(e2Spec())
	if err != nil {
		return nil, nil, pdms.Request{}, err
	}
	var served []*pdms.Peer
	for i := 8; i < 16; i++ {
		served = append(served, g.Net.Peer(workload.PeerName(i)))
	}
	ft := faults.New(pdms.NewLoopback(served...), fcfg)
	n := pdms.NewNetwork()
	n.DownProbeInterval = time.Hour // keep the background prober out of the timings
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		name := workload.PeerName(i)
		if i < 8 {
			if err := n.AddPeer(g.Net.Peer(name)); err != nil {
				return nil, nil, pdms.Request{}, err
			}
			continue
		}
		if _, err := n.AddRemotePeer(ctx, name, ft); err != nil {
			return nil, nil, pdms.Request{}, err
		}
	}
	for _, m := range g.Net.Mappings() {
		if err := n.AddMapping(m); err != nil {
			return nil, nil, pdms.Request{}, err
		}
	}
	req := pdms.Request{Peer: workload.PeerName(0), Query: g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: 17}}
	return n, ft, req, nil
}

// runQuery materializes one request, returning the answer count and
// the retries the cursor spent.
func runQuery(n *pdms.Network, req pdms.Request) (answers, retries int, err error) {
	cur, err := n.Query(context.Background(), req)
	if err != nil {
		return 0, 0, err
	}
	rel, err := cur.Materialize()
	if err != nil {
		return 0, cur.Retries(), err
	}
	return rel.Len(), cur.Retries(), nil
}

// WarmRemote measures the warm E2/16 path with the upper half of the
// peers behind loopback: the in-process path plus eight freshness
// probes per operation.
func WarmRemote() (Bench, error) {
	n, _, req, err := remoteCoordinator(faults.Config{})
	if err != nil {
		return Bench{}, err
	}
	if _, _, err := runQuery(n, req); err != nil {
		return Bench{}, err
	}
	return benchQueries(n, req)
}

// Degraded measures warm stale serving: one remote peer blacked out
// and marked down, every operation an AllowStale query that skips the
// dead peer's probe and serves its last-good snapshot.
func Degraded() (Bench, error) {
	n, ft, req, err := remoteCoordinator(faults.Config{})
	if err != nil {
		return Bench{}, err
	}
	req.Retry, req.AllowStale = ledgerPolicy(), true
	if _, _, err := runQuery(n, req); err != nil { // warm every mirror first
		return Bench{}, err
	}
	ft.Blackout(workload.PeerName(15), true)
	// One marking query: the dead probe degrades, the peer goes down,
	// and from then on the fast path skips it entirely.
	if _, _, err := runQuery(n, req); err != nil {
		return Bench{}, err
	}
	return benchQueries(n, req)
}

// Recovery measures the resync a rejoining peer triggers: every cache
// dropped per operation, so the coordinator re-probes and re-fetches
// all eight remote mirrors and recompiles its plans from scratch.
func Recovery() (Bench, error) {
	n, _, req, err := remoteCoordinator(faults.Config{})
	if err != nil {
		return Bench{}, err
	}
	req.Retry = ledgerPolicy()
	if _, _, err := runQuery(n, req); err != nil {
		return Bench{}, err
	}
	answers, retries := 0, int64(0)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.InvalidateCaches()
			a, ret, err := runQuery(n, req)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			answers, retries = a, retries+int64(ret)
		}
	})
	if benchErr != nil {
		return Bench{}, benchErr
	}
	return record(r, answers, retries), nil
}

// SkewedJoin measures the engine-level Zipf-skewed join on precompiled
// plans — reformulation and the network stack out of the loop, so the
// number isolates the batch kernel itself.
func SkewedJoin() (Bench, error) {
	db, q, err := workload.SkewedJoin(workload.SkewedJoinSpec{Seed: 42})
	if err != nil {
		return Bench{}, err
	}
	plan, err := cq.Compile(db, q)
	if err != nil {
		return Bench{}, err
	}
	plans := []*cq.Plan{plan}
	ctx := context.Background()
	opts := cq.ExecOptions{}
	if _, err := cq.MaterializeUnion(ctx, plans, opts); err != nil {
		return Bench{}, err
	}
	answers := 0
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := cq.MaterializeUnion(ctx, plans, opts)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			answers = res.Len()
		}
	})
	if benchErr != nil {
		return Bench{}, benchErr
	}
	return record(r, answers, 0), nil
}

// WarmBatch measures the warm E2/16 path through the cursor — the
// counterpart of WarmE2, which goes through Network.Answer.
func WarmBatch() (Bench, error) {
	g, err := workload.GenNetwork(e2Spec())
	if err != nil {
		return Bench{}, err
	}
	req := pdms.Request{Peer: workload.PeerName(0), Query: g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: 17}}
	ctx := context.Background()
	run := func() (int, error) {
		cur, err := g.Net.Query(ctx, req)
		if err != nil {
			return 0, err
		}
		res, err := cur.Materialize()
		if err != nil {
			return 0, err
		}
		return res.Len(), nil
	}
	if _, err := run(); err != nil {
		return Bench{}, err
	}
	answers := 0
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := run()
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			answers = a
		}
	})
	if benchErr != nil {
		return Bench{}, benchErr
	}
	return record(r, answers, 0), nil
}

// coldRemoteNet builds the cold-remote skewed-join fixture: peer "src"
// (remote over loopback) serves the Zipf-skewed 50k-row fact relation;
// peer "home" (local, the coordinator) holds a selective 8-key tail
// dimension plus the empty fact vocabulary relation, mapped to src's.
// The served src peer is returned too, so the push-fanout bench can
// keep mutating it.
func coldRemoteNet() (*pdms.Network, *pdms.Loopback, *pdms.Peer, pdms.Request, error) {
	fail := func(err error) (*pdms.Network, *pdms.Loopback, *pdms.Peer, pdms.Request, error) {
		return nil, nil, nil, pdms.Request{}, err
	}
	db, _, err := workload.SkewedJoin(workload.SkewedJoinSpec{FactRows: 50000, DimKeys: 64, Seed: 42})
	if err != nil {
		return fail(err)
	}
	src := pdms.NewPeer("src", relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload")))
	for _, row := range db.Get("fact").Rows() {
		if err := src.Insert("fact", row); err != nil {
			return fail(err)
		}
	}
	home := pdms.NewPeer("home",
		relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload")),
		relation.NewSchema("dim", relation.Attr("key"), relation.Attr("label")))
	for k := 40; k < 48; k++ {
		if err := home.Insert("dim", relation.Tuple{
			relation.SV(fmt.Sprintf("k%d", k)), relation.SV(fmt.Sprintf("l%d", k%7))}); err != nil {
			return fail(err)
		}
	}
	lb := pdms.NewLoopback(src)
	n := pdms.NewNetwork()
	n.DownProbeInterval = time.Hour
	if err := n.AddPeer(home); err != nil {
		return fail(err)
	}
	if _, err := n.AddRemotePeer(context.Background(), "src", lb); err != nil {
		return fail(err)
	}
	m := glav.MustNew("src2home", "src", cq.MustParse("m(K, P) :- fact(K, P)"),
		"home", cq.MustParse("m(K, P) :- fact(K, P)"))
	if err := n.AddMapping(m); err != nil {
		return fail(err)
	}
	req := pdms.Request{Peer: "home", Query: cq.MustParse("q(P, L) :- fact(K, P), dim(K, L)"),
		Reform: pdms.ReformOptions{MaxDepth: 3}}
	return n, lb, src, req, nil
}

// coldRemote measures the cold remote skewed join under the given ship
// mode: every operation invalidates all caches, so the stale fact
// relation is refreshed — by shipped sub-plan or full mirror scan — on
// each query, and the loopback byte counter prices the refresh path.
func coldRemote(mode pdms.ShipMode) (Bench, error) {
	n, lb, _, req, err := coldRemoteNet()
	if err != nil {
		return Bench{}, err
	}
	req.Ship = mode
	if _, _, err := runQuery(n, req); err != nil {
		return Bench{}, err
	}
	answers, ops := 0, int64(0)
	wireBase := lb.WireBytes()
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.InvalidateCaches()
			a, _, err := runQuery(n, req)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			answers = a
			ops++
		}
	})
	if benchErr != nil {
		return Bench{}, benchErr
	}
	bench := record(r, answers, 0)
	if ops > 0 {
		bench.WireBytesPerOp = float64(lb.WireBytes()-wireBase) / float64(ops)
	}
	return bench, nil
}

// ColdShip measures BenchColdShip (plan shipping on, deterministic).
func ColdShip() (Bench, error) { return coldRemote(pdms.ShipAlways) }

// ColdMirror measures BenchColdMirror (the full-scan baseline).
func ColdMirror() (Bench, error) { return coldRemote(pdms.ShipNever) }

// PushFanout measures BenchPushFanout: the remote fact relation is
// mirrored once through the poll path, then a push subscription keeps
// it current. Each operation inserts one dim-matched row at the serving
// peer, deletes the row the previous operation inserted, waits for the
// push apply, and re-runs the warm query — so the wire carries exactly
// the changed rows, the query skips the State probe entirely, and the
// answer set keeps its size from one operation to the next. The loopback's probe and byte counters price both
// properties; Run gates them.
func PushFanout() (Bench, error) {
	n, lb, src, req, err := coldRemoteNet()
	if err != nil {
		return Bench{}, err
	}
	ctx := context.Background()
	if _, _, err := runQuery(n, req); err != nil { // mirror the fact relation once
		return Bench{}, err
	}
	if err := n.StartPush(ctx, "src"); err != nil {
		return Bench{}, err
	}
	defer n.StopPush("src")
	lctx, lcancel := context.WithTimeout(ctx, 30*time.Second)
	defer lcancel()
	if err := n.WaitPushLive(lctx, "src"); err != nil {
		return Bench{}, err
	}
	seq := 0
	var prev relation.Tuple
	pushOne := func() error {
		key := fmt.Sprintf("k%d", 40+seq%8) // dim-matched: the answer changes
		t := relation.Tuple{relation.SV(key), relation.SV(fmt.Sprintf("pushed%d", seq))}
		seq++
		if err := src.Insert("fact", t); err != nil {
			return err
		}
		if prev != nil {
			if _, err := src.Delete("fact", prev); err != nil {
				return err
			}
		}
		prev = t
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		return n.WaitPushApplied(wctx, "src", "fact", src.Store.Get("fact").Version())
	}
	// One warm-up op establishes the subscription (the first apply only
	// lands once the ack anchored the fingerprints) before counting.
	if err := pushOne(); err != nil {
		return Bench{}, err
	}
	if _, _, err := runQuery(n, req); err != nil {
		return Bench{}, err
	}
	answers, ops := 0, int64(0)
	wireBase, probeBase := lb.WireBytes(), lb.States()
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := pushOne(); err != nil {
				benchErr = err
				b.FailNow()
			}
			a, _, err := runQuery(n, req)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			answers = a
			ops++
		}
	})
	if benchErr != nil {
		return Bench{}, benchErr
	}
	bench := record(r, answers, 0)
	if ops > 0 {
		bench.WireBytesPerOp = float64(lb.WireBytes()-wireBase) / float64(ops)
		bench.StateProbesPerOp = float64(lb.States()-probeBase) / float64(ops)
	}
	return bench, nil
}

// benchQueries benchmarks repeated materialized queries of req.
func benchQueries(n *pdms.Network, req pdms.Request) (Bench, error) {
	answers, retries := 0, int64(0)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, ret, err := runQuery(n, req)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			answers, retries = a, retries+int64(ret)
		}
	})
	if benchErr != nil {
		return Bench{}, benchErr
	}
	return record(r, answers, retries), nil
}

// Run measures the full ledger suite.
func Run() (*Ledger, error) {
	l := &Ledger{Schema: 1, PR: CurrentPR, GoVersion: runtime.Version(), Benches: map[string]Bench{}}
	for _, bench := range []struct {
		name string
		run  func() (Bench, error)
	}{
		{BenchWarm, WarmE2},
		{BenchWarmRemote, WarmRemote},
		{BenchDegraded, Degraded},
		{BenchRecovery, Recovery},
		{BenchSkewed, SkewedJoin},
		{BenchWarmBatch, WarmBatch},
		{BenchColdShip, ColdShip},
		{BenchColdMirror, ColdMirror},
		{BenchPushFanout, PushFanout},
	} {
		b, err := bench.run()
		if err != nil {
			return nil, fmt.Errorf("perfledger: %s: %w", bench.name, err)
		}
		l.Benches[bench.name] = b
	}
	ship, mirror := l.Benches[BenchColdShip], l.Benches[BenchColdMirror]
	if ship.Answers != mirror.Answers {
		return nil, fmt.Errorf("perfledger: cold remote answers diverge: ship %d vs mirror %d",
			ship.Answers, mirror.Answers)
	}
	// The PR's acceptance bound, enforced where the numbers are minted:
	// shipping the bound sub-plan must move at least 10x fewer wire
	// bytes than mirroring the relation.
	if ship.WireBytesPerOp <= 0 || mirror.WireBytesPerOp < 10*ship.WireBytesPerOp {
		return nil, fmt.Errorf("perfledger: plan shipping moved %.0f wire bytes/op vs mirror's %.0f — want >= 10x reduction",
			ship.WireBytesPerOp, mirror.WireBytesPerOp)
	}
	// This PR's acceptance bound: a subscribed watch iteration must move
	// O(changed-rows) wire bytes (one pushed record, far under a frame)
	// and answer with zero State probes — the push path's whole point.
	pf := l.Benches[BenchPushFanout]
	if pf.WireBytesPerOp <= 0 || pf.WireBytesPerOp >= 4096 {
		return nil, fmt.Errorf("perfledger: push fanout moved %.0f wire bytes/op — want O(changed-rows), in (0, 4096)",
			pf.WireBytesPerOp)
	}
	if pf.StateProbesPerOp != 0 {
		return nil, fmt.Errorf("perfledger: push fanout spent %.2f State probes/op — want 0 (push-live queries must skip the probe)",
			pf.StateProbesPerOp)
	}
	return l, nil
}
