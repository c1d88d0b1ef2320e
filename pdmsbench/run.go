package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/metrics"
	"time"

	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/transport"
)

// Run-shape constants. They are part of the benchmark's definition: a
// change that claims a gain must leave them alone.
const (
	// setupRuns is how many times a trace-0 run builds its fixture;
	// setup_s is the median.
	setupRuns = 5
	// warmup runs the full load before measuring, so the reformulation
	// cache and the mirrors are in their steady state.
	warmup = 2 * time.Second
	// queryTimeout bounds one query; a query that hits it fails.
	queryTimeout = 10 * time.Second
	// maxFailureLines caps the failure messages printed to stderr.
	maxFailureLines = 5
)

// server is a transport.Server on a 127.0.0.1 port of its own.
type server struct {
	srv  *transport.Server
	addr string
	done chan error
}

func startServer(push bool, peers ...*pdms.Peer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: transport.NewServer(peers...), addr: ln.Addr().String(), done: make(chan error, 1)}
	s.srv.Push = push
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop to return.
func (s *server) close() error {
	s.srv.Close()
	return <-s.done
}

// coord is one coordinator: a pdms.Network reaching the served peers
// through a transport.Client, bare in the untraced run and wrapped in
// a timedTransport in the traced one.
type coord struct {
	client *transport.Client
	net    *pdms.Network
	// pushed names the remote peers with a push subscription.
	pushed []string
	// shared names fixture peers joined as local peers. close detaches
	// them, so the fixture does not keep this network and its caches
	// alive after the coordinator is done.
	shared []string
}

// dial connects to addr and returns the client plus the transport the
// coordinator uses: the client itself when rec is nil.
func dial(addr string, rec *recorder) (*transport.Client, pdms.Transport, error) {
	c, err := transport.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		return c, c, nil
	}
	return c, &timedTransport{c: c, rec: rec}, nil
}

func (c *coord) close() error {
	for _, p := range c.pushed {
		c.net.StopPush(p)
	}
	var errs []error
	for _, p := range c.shared {
		errs = append(errs, c.net.RemovePeer(p))
	}
	return errors.Join(append(errs, c.client.Close())...)
}

// fixture is one workload's served side: data, serving peers and the
// TCP server. A run builds coordinators over it and drives load.
type fixture interface {
	// coordinator builds a coordinator, fills its mirrors over TCP and
	// (for watch_push) brings its subscription live.
	coordinator(ctx context.Context, rec *recorder) (*coord, error)
	// phase runs the workload's load against c: warm first, then
	// measure, then quiesce and check the final state.
	phase(ctx context.Context, c *coord, rec *recorder, warm, measure time.Duration) *phaseStats
	// samples times direct calls into the reformulator and cq.Compile
	// on a sample of this workload's requests.
	samples(ctx context.Context, c *coord) (reform, compile []time.Duration, err error)
	// layerExtra adds the fixture's own per-layer metrics (store layer).
	layerExtra(ph *phaseStats, out *metricSet) error
	close() error
}

// queryObs is what one completed query reports.
type queryObs struct {
	done       time.Time
	latency    time.Duration // Network.Query + Materialize
	prepare    time.Duration // Network.Query
	reform     time.Duration // Cursor.ReformTime
	exec       time.Duration // Cursor.ExecTime
	rewritings int
	answers    int
	retries    int
	batch      int
	fallback   int
	paths      map[string]int // sync path → relations refreshed that way
}

// phaseStats collects one phase.
type phaseStats struct {
	start, end time.Time // the measured window
	queries    []queryObs
	// writeLat (from each write's due time to its return) and fresh
	// (from its return to the first answer reflecting it) are kept per
	// operation, indexed by opInsert and opDelete.
	writeLat [2][]time.Duration
	fresh    [2][]time.Duration
	lateness []time.Duration // how far behind schedule each write started
	writes   int             // writes started in the measured window

	attempted, failed int
	failures          []error

	memPeaks    []float64 // peak heap bytes per window
	wireBytes   uint64
	walBytes    int64
	pushBatches uint64
	pushRecords uint64
	pushGaps    uint64
}

// fail counts one failed operation.
func (p *phaseStats) fail(err error) {
	p.failed++
	p.failures = append(p.failures, err)
}

// runQuery runs one request to completion. With a recorder it records
// a request root span with pdms.prepare and cq.exec children; the
// prepare span rides the context so transport spans nest under it.
func runQuery(ctx context.Context, n *pdms.Network, req pdms.Request, rec *recorder) (*relation.Relation, queryObs, error) {
	var obs queryObs
	ctx, cancel := context.WithTimeout(ctx, queryTimeout)
	defer cancel()
	root := rec.begin(spanRef{}, "request")
	defer rec.end(root)
	t0 := time.Now()
	prep := rec.begin(root, "pdms.prepare")
	cur, err := n.Query(withSpan(ctx, prep), req)
	t1 := time.Now()
	rec.end(prep)
	if err != nil {
		return nil, obs, err
	}
	ex := rec.begin(root, "cq.exec")
	rel, err := cur.Materialize()
	rec.end(ex)
	t2 := time.Now()
	if err != nil {
		return nil, obs, err
	}
	st := cur.Stats()
	obs = queryObs{done: t2, latency: t2.Sub(t0), prepare: t1.Sub(t0), reform: cur.ReformTime(), exec: cur.ExecTime(),
		rewritings: st.Kept, answers: rel.Len(), retries: cur.Retries(),
		batch: st.BatchBranches, fallback: st.FallbackBranches}
	if sp := cur.SyncPaths(); len(sp) > 0 {
		obs.paths = make(map[string]int, len(sp))
		for _, p := range sp {
			obs.paths[p.Path]++
		}
	}
	return rel, obs, nil
}

// window is the length of the sub-windows the measured phase is cut
// into: query_qps and mem_peak_mb are medians over them, so a burst of
// outside load in a few of them does not move the run's figure.
const window = 250 * time.Millisecond

// memSampler samples the Go heap (live and not yet collected objects)
// every 5 ms and keeps each window's peak.
type memSampler struct {
	stop chan struct{}
	done chan []float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		var peaks []float64
		for {
			metrics.Read(s)
			w := int(time.Since(start) / window)
			for len(peaks) <= w {
				peaks = append(peaks, 0)
			}
			peaks[w] = max(peaks[w], float64(s[0].Value.Uint64()))
			select {
			case <-m.stop:
				m.done <- peaks
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the per-window peaks in bytes.
func (m *memSampler) finish() []float64 {
	close(m.stop)
	return <-m.done
}

// perWindow counts the times falling in each window of [start, end).
func perWindow(start, end time.Time, times []time.Time) []float64 {
	n := int(end.Sub(start) / window)
	counts := make([]float64, max(n, 1))
	for _, t := range times {
		if w := int(t.Sub(start) / window); w >= 0 && w < len(counts) {
			counts[w]++
		}
	}
	return counts
}

// outcome is a whole run's result.
type outcome struct {
	metrics           *metricSet
	attempted, failed int
	failures          []error
	behind            bool
}

func (o *outcome) absorb(p *phaseStats) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.failures = append(o.failures, p.failures...)
}

// runUntraced builds the fixture setupRuns times, keeps the last, and
// measures the end-to-end metrics on it with the bare client.
func runUntraced(ctx context.Context, cfg config, build func(dir string) (fixture, error)) (*outcome, error) {
	var (
		fx     fixture
		c      *coord
		setups []float64
	)
	closeAll := func() error {
		var errs []error
		if c != nil {
			errs = append(errs, c.close())
		}
		if fx != nil {
			errs = append(errs, fx.close())
		}
		c, fx = nil, nil
		return errors.Join(errs...)
	}
	defer closeAll()
	for i := 0; i < setupRuns; i++ {
		if err := closeAll(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if fx, err = build(cfg.subdir(fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		if c, err = fx.coordinator(ctx, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph := fx.phase(ctx, c, nil, warmup, cfg.measure())
	out := &outcome{metrics: &metricSet{}}
	out.absorb(ph)
	e2eMetrics(ph, out.metrics)
	out.metrics.add("setup_s", summarize(setups).P50, "s", len(setups))
	out.behind = writerBehind(ph)
	return out, closeAll()
}

// runTraced builds the fixture once, measures half the run with the
// bare client (the overhead reference) and half through the timing
// transport with spans recorded, and derives the per-layer metrics.
func runTraced(ctx context.Context, cfg config, build func(dir string) (fixture, error)) (*outcome, error) {
	fx, err := build(cfg.subdir("traced"))
	if err != nil {
		return nil, err
	}
	defer fx.close()
	half := cfg.measure() / 2
	out := &outcome{metrics: &metricSet{}}

	cA, err := fx.coordinator(ctx, nil)
	if err != nil {
		return nil, err
	}
	phA := fx.phase(ctx, cA, nil, warmup, half)
	if err := cA.close(); err != nil {
		return nil, err
	}
	out.absorb(phA)

	rec := newRecorder()
	cB, err := fx.coordinator(ctx, rec)
	if err != nil {
		return nil, err
	}
	phB := fx.phase(ctx, cB, rec, warmup, half)
	out.absorb(phB)
	reformS, compileS, err := fx.samples(ctx, cB)
	if err != nil {
		cB.close()
		return nil, err
	}
	if err := cB.close(); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	layerMetrics(phA, phB, rec.epoch, spans, reformS, compileS, out.metrics)
	if err := fx.layerExtra(phB, out.metrics); err != nil {
		return nil, err
	}
	out.behind = writerBehind(phA) || writerBehind(phB)
	if err := rec.writeFile(cfg.tracePath()); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return out, fx.close()
}
