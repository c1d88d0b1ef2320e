package main

import (
	"context"

	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/transport"
)

// timedTransport wraps a *transport.Client for the traced run. It
// implements every transport interface the coordinator probes for, so
// no optional path (delta, plan shipping, push) is hidden by the
// wrapper, and times each call plus the deliver callbacks it hands
// back: a callback runs coordinator code (replica build, push apply),
// so its span belongs to the pdms layer. Spans nest under the span the
// call's context carries.
type timedTransport struct {
	c   *transport.Client
	rec *recorder
}

var (
	_ pdms.Transport      = (*timedTransport)(nil)
	_ pdms.DeltaTransport = (*timedTransport)(nil)
	_ pdms.PlanTransport  = (*timedTransport)(nil)
	_ pdms.PushTransport  = (*timedTransport)(nil)
)

func (t *timedTransport) State(ctx context.Context, peer string) (pdms.PeerState, error) {
	s := t.rec.begin(spanFrom(ctx), "transport.state")
	defer t.rec.end(s)
	return t.c.State(ctx, peer)
}

func (t *timedTransport) Schemas(ctx context.Context, peer string) ([]relation.Schema, error) {
	s := t.rec.begin(spanFrom(ctx), "transport.schemas")
	defer t.rec.end(s)
	return t.c.Schemas(ctx, peer)
}

func (t *timedTransport) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	s := t.rec.begin(spanFrom(ctx), "transport.scan")
	defer t.rec.end(s)
	return t.c.Scan(ctx, peer, rel, func(batch []relation.Tuple) error {
		a := t.rec.begin(s, "pdms.scan_apply")
		defer t.rec.end(a)
		return deliver(batch)
	})
}

func (t *timedTransport) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	s := t.rec.begin(spanFrom(ctx), "transport.delta")
	defer t.rec.end(s)
	return t.c.Delta(ctx, peer, rel, since)
}

func (t *timedTransport) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan,
	deliver func([]relation.Tuple) error) error {
	s := t.rec.begin(spanFrom(ctx), "transport.exec_plan")
	defer t.rec.end(s)
	return t.c.ExecPlan(ctx, peer, sp, func(batch []relation.Tuple) error {
		a := t.rec.begin(s, "pdms.ship_apply")
		defer t.rec.end(a)
		return deliver(batch)
	})
}

// Subscribe is not itself a span: it lasts the whole subscription.
// The acknowledgement and each pushed batch's apply are root spans of
// their own requests.
func (t *timedTransport) Subscribe(ctx context.Context, peer string, since map[string]uint64,
	ack func(pdms.PeerState) error, deliver func([]relation.ChangeRecord) error) error {
	return t.c.Subscribe(ctx, peer, since,
		func(st pdms.PeerState) error {
			s := t.rec.begin(spanRef{}, "pdms.push_ack")
			defer t.rec.end(s)
			return ack(st)
		},
		func(recs []relation.ChangeRecord) error {
			s := t.rec.begin(spanRef{}, "pdms.push_apply")
			defer t.rec.end(s)
			return deliver(recs)
		})
}

func (t *timedTransport) Close() error { return t.c.Close() }
