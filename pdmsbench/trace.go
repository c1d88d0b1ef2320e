package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent is 0 for a request's root span.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix before the first dot ("transport",
// "pdms", "cq", "store"), or the whole name for the benchmark's own
// root spans ("request", "write").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef names an open span: the request it belongs to, its own id,
// and where it sits in the recorder's slice. The zero value means "no
// span" and is what an untraced run passes around.
type spanRef struct {
	req, id uint64
	idx     int
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced path pays one nil check per call.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	nextID uint64
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span named name under parent, or a new request's root
// span when parent is the zero spanRef.
func (r *recorder) begin(parent spanRef, name string) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	ref := spanRef{req: parent.req, id: r.nextID, idx: len(r.spans)}
	if parent.id == 0 {
		ref.req = r.nextID
	}
	r.spans = append(r.spans, span{Req: ref.req, ID: ref.id, Parent: parent.id, Name: name, Start: now})
	return ref
}

// end closes the span ref names.
func (r *recorder) end(ref spanRef) {
	if r == nil || ref.id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[ref.idx].End = now
	r.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes every closed span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// withSpan returns ctx carrying ref as the parent for spans opened by
// code that receives ctx (the timing transport).
func withSpan(ctx context.Context, ref spanRef) context.Context {
	if ref.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, ref)
}

// spanFrom returns the span ctx carries, or the zero spanRef.
func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// interval is a half-open [lo, hi) stretch of recorder time.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers;
// overlapping intervals (parallel children) count once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if open && iv.lo <= curHi {
			curHi = max(curHi, iv.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv.lo, iv.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval its direct children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// busy returns how much of [lo, hi) at least one span named with the
// given prefix covered.
func busy(spans []span, prefix string, lo, hi int64) time.Duration {
	var ivs []interval
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	return time.Duration(covered(lo, hi, ivs))
}

// durations returns the durations of the spans with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}
