package main

import (
	"context"
	"testing"
	"time"
)

func TestCoveredCountsOverlapOnce(t *testing.T) {
	ivs := []interval{{10, 30}, {20, 50}, {90, 120}, {-5, 2}}
	if got := covered(0, 100, ivs); got != 52 {
		t.Errorf("covered = %d, want 52 (0-2, 10-50, 90-100)", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered of nothing = %d", got)
	}
}

func TestSelfTimeSubtractsChildrenOverlap(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Name: "request", Start: 0, End: 200},
		{Req: 1, ID: 2, Parent: 1, Name: "pdms.prepare", Start: 0, End: 100},
		// parallel transport calls overlap each other
		{Req: 1, ID: 3, Parent: 2, Name: "transport.state", Start: 10, End: 30},
		{Req: 1, ID: 4, Parent: 2, Name: "transport.state", Start: 20, End: 50},
		{Req: 1, ID: 5, Parent: 1, Name: "cq.exec", Start: 100, End: 190},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 10, 2: 60, 3: 20, 4: 30, 5: 90} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
	layers := layerSelf(spans)
	if layers["pdms"] != 60 || layers["transport"] != 50 || layers["cq"] != 90 || layers["request"] != 10 {
		t.Errorf("layer self times = %v", layers)
	}
	if got := busy(spans, "transport.", 0, 200); got != 40 {
		t.Errorf("transport busy = %d, want 40", got)
	}
}

func TestRecorderNestsThroughContext(t *testing.T) {
	r := newRecorder()
	root := r.begin(spanRef{}, "request")
	prep := r.begin(root, "pdms.prepare")
	ctx := withSpan(context.Background(), prep)
	child := r.begin(spanFrom(ctx), "transport.state")
	r.end(child)
	r.end(prep)
	other := r.begin(spanRef{}, "request")
	r.end(other)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		if s.ID != other.id {
			byName[s.Name] = s
		}
	}
	if byName["transport.state"].Parent != prep.id || byName["transport.state"].Req != root.req ||
		byName["pdms.prepare"].Req != root.req || other.req == root.req {
		t.Errorf("spans = %+v", spans)
	}
	var nilRec *recorder
	if ref := nilRec.begin(root, "x"); ref != (spanRef{}) {
		t.Error("a nil recorder must record nothing")
	}
	nilRec.end(root)
	if spanFrom(context.Background()) != (spanRef{}) {
		t.Error("a bare context carries no span")
	}
}
