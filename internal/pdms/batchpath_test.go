package pdms

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cq"
)

// TestWarmPathUsesBatchKernel checks that a warm cursor over stored
// relations executes its union branches on the columnar batch kernel
// and counts them in Stats.
func TestWarmPathUsesBatchKernel(t *testing.T) {
	n := chainNetwork(t)
	q := cq.MustParse("q(L) :- offering(L, S)")
	// Warm the reformulation and plan caches.
	if _, err := n.Answer("oxford", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	cur, err := n.Query(context.Background(), Request{Peer: "oxford", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Materialize(); err != nil {
		t.Fatal(err)
	}
	s := cur.Stats()
	if s.BatchBranches == 0 {
		t.Fatal("warm query ran no branch on the batch kernel")
	}
}

// TestExplainListsBranches checks the per-branch plan lines the revere
// query -explain flag surfaces.
func TestExplainListsBranches(t *testing.T) {
	n := chainNetwork(t)
	cur, err := n.Query(context.Background(), Request{
		Peer:  "oxford",
		Query: cq.MustParse("q(L) :- offering(L, S)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	out := cur.Explain()
	if !strings.Contains(out, "branch 0: ") {
		t.Fatalf("Explain lacks a branch line:\n%s", out)
	}
}
