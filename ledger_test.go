package repro

import (
	"testing"

	"repro/internal/perfledger"
)

// TestPerfLedgerGate is the machine check behind the committed
// BENCH_N.json trajectory: it loads the latest ledger, re-measures the
// all-local warm E2/16 path and the push_fanout watch iteration live,
// and fails when either regresses beyond noise against that baseline.
// Allocations are deterministic, so their gate is tight (allocGate);
// wall-clock varies across CI machines, so the warm path's gate is
// generous — it catches a path regression (an accidental cold re-plan,
// a lock convoy), not a slow runner.
func TestPerfLedgerGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a ~1s benchmark")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the measured path far past the non-race baseline")
	}
	path, err := perfledger.Latest(".")
	if err != nil {
		t.Fatalf("resolving the latest committed perf ledger: %v", err)
	}
	t.Logf("gating against %s", path)
	ledger, err := perfledger.Load(path)
	if err != nil {
		t.Fatalf("loading the committed perf ledger: %v", err)
	}
	for _, name := range perfledger.RequiredBenches {
		if _, ok := ledger.Benches[name]; !ok {
			t.Errorf("ledger is missing required bench %q (re-run `revere bench`)", name)
		}
	}
	// The plan-shipping acceptance bound, re-checked on the committed
	// numbers: the cold remote refresh must move at least 10x fewer
	// wire bytes shipped than mirrored.
	ship := ledger.Benches[perfledger.BenchColdShip]
	mirror := ledger.Benches[perfledger.BenchColdMirror]
	if ship.WireBytesPerOp <= 0 || mirror.WireBytesPerOp < 10*ship.WireBytesPerOp {
		t.Errorf("committed ledger: plan shipping moved %.0f wire bytes/op vs mirror's %.0f — want >= 10x reduction",
			ship.WireBytesPerOp, mirror.WireBytesPerOp)
	}
	// The push-replication acceptance bound, re-checked on the committed
	// numbers: a subscribed watch iteration must move O(changed-rows)
	// wire bytes (one pushed record, far under a frame) and answer with
	// zero State probes — the push path replaces the freshness probe.
	push := ledger.Benches[perfledger.BenchPushFanout]
	if push.WireBytesPerOp <= 0 || push.WireBytesPerOp >= 4096 {
		t.Errorf("committed ledger: push fanout moved %.0f wire bytes/op — want O(changed-rows), in (0, 4096)",
			push.WireBytesPerOp)
	}
	if push.StateProbesPerOp != 0 {
		t.Errorf("committed ledger: push fanout spent %.2f State probes/op — want 0 (push-live queries skip the probe)",
			push.StateProbesPerOp)
	}
	base, ok := ledger.Benches[perfledger.BenchWarm]
	if !ok || base.NsPerOp <= 0 || base.AllocsPerOp <= 0 {
		t.Fatalf("ledger %s entry unusable: %+v", perfledger.BenchWarm, base)
	}
	live, err := perfledger.WarmE2()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm E2/16: live %.0f ns/op %d allocs/op vs ledger %.0f ns/op %d allocs/op",
		live.NsPerOp, live.AllocsPerOp, base.NsPerOp, base.AllocsPerOp)
	if live.Answers != base.Answers {
		t.Errorf("warm E2/16 answers = %d, ledger recorded %d", live.Answers, base.Answers)
	}
	if maxAllocs := allocGate(base.AllocsPerOp); live.AllocsPerOp > maxAllocs {
		t.Errorf("warm E2/16 allocs regressed: %d/op, gate %d/op (ledger %d/op)",
			live.AllocsPerOp, maxAllocs, base.AllocsPerOp)
	}
	// Wall clock varies with the runner; 4x the recorded baseline is
	// far outside machine noise.
	if maxNs := base.NsPerOp * 4; live.NsPerOp > maxNs {
		t.Errorf("warm E2/16 wall clock regressed: %.0f ns/op, gate %.0f ns/op (ledger %.0f ns/op)",
			live.NsPerOp, maxNs, base.NsPerOp)
	}
	// The push watch iteration's allocations are O(changed rows) since
	// replicas are caught up in place; a copy of the relation sneaking
	// back onto the apply path costs tens of thousands per op.
	pushLive, err := perfledger.PushFanout()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("push_fanout: live %.0f ns/op %d allocs/op vs ledger %.0f ns/op %d allocs/op",
		pushLive.NsPerOp, pushLive.AllocsPerOp, push.NsPerOp, push.AllocsPerOp)
	if maxAllocs := allocGate(push.AllocsPerOp); pushLive.AllocsPerOp > maxAllocs {
		t.Errorf("push_fanout allocs regressed: %d/op, gate %d/op (ledger %d/op)",
			pushLive.AllocsPerOp, maxAllocs, push.AllocsPerOp)
	}
}

// allocGate bounds a live allocation count against its committed
// value. Allocation counts barely vary run to run: +25% (plus a small
// absolute slack) is a real regression, not noise.
func allocGate(committed int64) int64 { return committed*5/4 + 8 }
