package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// watch_push and poll_delta share one fixture: a durable serving peer
// "src" holds the 50,000-row Zipf-skewed fact relation behind a TCP
// server; the coordinator's local peer "home" holds an 8-key dim
// relation and asks q(P, L) :- fact(K, P), dim(K, L). An open-loop
// writer changes src at 10 writes/s while one closed-loop reader
// queries. watch_push keeps the mirror current through a push
// subscription; poll_delta takes the default poll path (a State probe
// per query, then a Delta catch-up from the durable log).
const (
	joinFactRows = 50000
	joinDimKeys  = 64 // distinct keys in the fact relation
	joinDimLo    = 40 // the coordinator's dim holds keys joinDimLo..joinDimLo+joinDimN-1
	joinDimN     = 8
	joinMaxDepth = 3
	// visibleTimeout is how long after a write returns an answer must
	// reflect it; a write reflected later, or never, fails.
	visibleTimeout = 2 * time.Second
	// quiesceMax bounds how long the reader keeps querying after the
	// writer stops, waiting for the last writes to become visible.
	quiesceMax  = 5 * time.Second
	joinSamples = 32
	// writeInterval is the open-loop writer's schedule: 10 writes/s.
	writeInterval = 100 * time.Millisecond
)

var (
	factSchema = relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload"))
	dimSchema  = relation.NewSchema("dim", relation.Attr("key"), relation.Attr("label"))
	joinQuery  = cq.MustParse("q(P, L) :- fact(K, P), dim(K, L)")
)

// dimKey and dimLabel give the coordinator's dim rows; extra row j
// joins to dimKey(j % joinDimN).
func dimKey(i int) string   { return fmt.Sprintf("k%d", joinDimLo+i) }
func dimLabel(i int) string { return fmt.Sprintf("l%d", (joinDimLo+i)%7) }
func extraRow(j int) relation.Tuple {
	return relation.Tuple{relation.SV(dimKey(j % joinDimN)), relation.SV(extraPayload(j))}
}

type joinFixture struct {
	push   bool
	dir    string
	src    *pdms.Peer
	srv    *server
	oracle *joinOracle
	// writes is the state index: how many writes src has taken.
	writes     int
	checkpoint time.Duration
	// phaseVer is the fact relation's version when the last measured
	// phase began: the log records after it are that phase's writes.
	phaseVer uint64
	once     sync.Once
}

// newJoinFixture generates the fact relation, populates a durable peer
// in dir through the logged Insert path, checkpoints it, and serves it.
func newJoinFixture(dir string, seed int64, push bool) (*joinFixture, error) {
	db, _, err := workload.SkewedJoin(workload.SkewedJoinSpec{FactRows: joinFactRows, DimKeys: joinDimKeys, Seed: seed})
	if err != nil {
		return nil, err
	}
	src, err := pdms.OpenDurablePeer("src", dir, factSchema)
	if err != nil {
		return nil, err
	}
	f := &joinFixture{push: push, dir: dir, src: src}
	for _, row := range db.Get("fact").Rows() {
		if err := src.Insert("fact", row); err != nil {
			src.ClosePersist()
			return nil, err
		}
	}
	if err := src.Insert("fact", extraRow(0)); err != nil {
		src.ClosePersist()
		return nil, err
	}
	t0 := time.Now()
	if err := src.Checkpoint(); err != nil {
		src.ClosePersist()
		return nil, err
	}
	f.checkpoint = time.Since(t0)
	// The expected answer without extra rows, from the reference
	// evaluator over the generated data.
	ref := relation.NewDatabase()
	ref.Put(db.Get("fact"))
	ref.Put(newDim())
	base, err := cq.EvalReference(ref, joinQuery)
	if err != nil {
		src.ClosePersist()
		return nil, err
	}
	f.oracle = newJoinOracle(base, func(j int) string { return dimLabel(j % joinDimN) })
	if f.srv, err = startServer(true, src); err != nil {
		src.ClosePersist()
		return nil, err
	}
	return f, nil
}

func newDim() *relation.Relation {
	dim := relation.New(dimSchema)
	for i := 0; i < joinDimN; i++ {
		if err := dim.Insert(relation.Tuple{relation.SV(dimKey(i)), relation.SV(dimLabel(i))}); err != nil {
			panic(err) // both columns are strings, as the schema says
		}
	}
	return dim
}

func (f *joinFixture) request() pdms.Request {
	return pdms.Request{Peer: "home", Query: joinQuery, Reform: pdms.ReformOptions{MaxDepth: joinMaxDepth}}
}

func (f *joinFixture) coordinator(ctx context.Context, rec *recorder) (*coord, error) {
	client, tr, err := dial(f.srv.addr, rec)
	if err != nil {
		return nil, err
	}
	c := &coord{client: client, net: pdms.NewNetwork()}
	setup := rec.begin(spanRef{}, "setup")
	defer rec.end(setup)
	sctx := withSpan(ctx, setup)
	fail := func(err error) (*coord, error) {
		c.close()
		return nil, fmt.Errorf("%s coordinator: %w", f.name(), err)
	}
	home := pdms.NewPeer("home", factSchema, dimSchema)
	for _, t := range newDim().Rows() {
		if err := home.Insert("dim", t); err != nil {
			return fail(err)
		}
	}
	if err := c.net.AddPeer(home); err != nil {
		return fail(err)
	}
	if _, err := c.net.AddRemotePeer(sctx, "src", tr); err != nil {
		return fail(err)
	}
	m, err := glav.New("src2home", "src", cq.MustParse("m(K, P) :- fact(K, P)"),
		"home", cq.MustParse("m(K, P) :- fact(K, P)"))
	if err != nil {
		return fail(err)
	}
	if err := c.net.AddMapping(m); err != nil {
		return fail(err)
	}
	// Mirror fill: the first query scans the fact relation over TCP.
	rel, _, err := runQuery(sctx, c.net, f.request(), nil)
	if err != nil {
		return fail(err)
	}
	if k, err := f.oracle.stateOf(rel); err != nil || k != f.writes {
		return fail(fmt.Errorf("mirror fill reflects state %d (%v), want %d", k, err, f.writes))
	}
	if f.push {
		if err := c.net.StartPush(ctx, "src"); err != nil {
			return fail(err)
		}
		c.pushed = []string{"src"}
		lctx, cancel := context.WithTimeout(ctx, queryTimeout)
		defer cancel()
		if err := c.net.WaitPushLive(lctx, "src"); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

func (f *joinFixture) name() string {
	if f.push {
		return "watch_push"
	}
	return "poll_delta"
}

// write applies write k at the serving peer, reporting whether it was
// an insert.
func (f *joinFixture) write(k int, rec *recorder) (insert bool, err error) {
	insert, j := writeOp(k)
	root := rec.begin(spanRef{}, "write")
	defer rec.end(root)
	if insert {
		s := rec.begin(root, "store.insert")
		defer rec.end(s)
		return true, f.src.Insert("fact", extraRow(j))
	}
	s := rec.begin(root, "store.delete")
	defer rec.end(s)
	n, err := f.src.Delete("fact", extraRow(j))
	if err == nil && n != 1 {
		err = fmt.Errorf("delete of extra row %d removed %d rows", j, n)
	}
	return false, err
}

// phase runs the writer and the reader for warm, then for measure,
// then checks the final answer against the reference evaluator over
// the serving peer's relation.
func (f *joinFixture) phase(ctx context.Context, c *coord, rec *recorder, warm, measure time.Duration) *phaseStats {
	w := f.load(ctx, c, nil, time.Now().Add(warm))
	wire0 := c.client.WireBytes()
	b0, r0, g0 := c.net.PushCounts()
	wal0 := f.walSize()
	f.phaseVer = f.src.Store.Get("fact").Version()
	mem := startMemSampler()
	start := time.Now()
	ph := f.load(ctx, c, rec, start.Add(measure))
	ph.start, ph.end = start, start.Add(measure)
	ph.memPeaks = mem.finish()
	ph.wireBytes = c.client.WireBytes() - wire0
	b1, r1, g1 := c.net.PushCounts()
	ph.pushBatches, ph.pushRecords, ph.pushGaps = b1-b0, r1-r0, g1-g0
	ph.walBytes = f.walSize() - wal0

	ph.attempted += w.attempted + 1
	ph.failed += w.failed
	ph.failures = append(ph.failures, w.failures...)
	if err := f.finalCheck(ctx, c); err != nil {
		ph.fail(fmt.Errorf("final answer: %w", err))
	}
	return ph
}

// load runs one open-loop writer and one closed-loop reader until
// until, then keeps the reader going until every write is visible (at
// most quiesceMax longer). Only queries completed before until are
// kept as samples; every answer is checked.
func (f *joinFixture) load(ctx context.Context, c *coord, rec *recorder, until time.Time) *phaseStats {
	var writes, reads phaseStats
	vis := newVisibility(f.writes)
	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * writeInterval)
			if !due.Before(until) {
				return
			}
			time.Sleep(time.Until(due))
			k := f.writes + i + 1
			vis.start(k)
			began := time.Now()
			insert, err := f.write(k, rec)
			done := time.Now()
			vis.committed(k, done, err)
			op := opDelete
			if insert {
				op = opInsert
			}
			writes.lateness = append(writes.lateness, began.Sub(due))
			writes.writeLat[op] = append(writes.writeLat[op], done.Sub(due))
			writes.writes++
		}
	}()
	go func() {
		defer wg.Done()
		req := f.request()
		hard := until.Add(quiesceMax)
		for {
			select {
			case <-writerDone:
				if vis.allVisible() || time.Now().After(hard) {
					return
				}
			default:
			}
			reads.attempted++
			rel, obs, err := runQuery(ctx, c.net, req, rec)
			at := time.Now()
			if err == nil {
				var k int
				if k, err = f.oracle.stateOf(rel); err == nil {
					err = vis.observe(k, at)
				}
			}
			if err != nil {
				reads.fail(err)
				continue
			}
			if at.Before(until) {
				reads.queries = append(reads.queries, obs)
			}
		}
	}()
	wg.Wait()
	ph := &reads
	ph.lateness, ph.writeLat, ph.writes = writes.lateness, writes.writeLat, writes.writes
	ph.attempted += ph.writes
	f.writes += ph.writes
	fresh, failures := vis.result(visibleTimeout)
	ph.fresh = fresh
	for _, err := range failures {
		ph.fail(err)
	}
	return ph
}

// finalCheck compares the coordinator's answer, once the writes are
// applied, with the reference evaluator over src's relation and dim.
func (f *joinFixture) finalCheck(ctx context.Context, c *coord) error {
	fact := f.src.Store.Get("fact")
	if f.push {
		wctx, cancel := context.WithTimeout(ctx, queryTimeout)
		defer cancel()
		if err := c.net.WaitPushApplied(wctx, "src", "fact", fact.Version()); err != nil {
			return err
		}
	}
	got, _, err := runQuery(ctx, c.net, f.request(), nil)
	if err != nil {
		return err
	}
	ref := relation.NewDatabase()
	ref.Put(fact)
	ref.Put(newDim())
	want, err := cq.EvalReference(ref, joinQuery)
	if err != nil {
		return err
	}
	return sameAnswers(got, want)
}

// walSize returns the durable log's current size in bytes.
func (f *joinFixture) walSize() int64 {
	st, err := os.Stat(filepath.Join(f.dir, "wal"))
	if err != nil {
		return 0
	}
	return st.Size()
}

func (f *joinFixture) samples(ctx context.Context, c *coord) (reform, compile []time.Duration, err error) {
	req := f.request()
	db := c.net.GlobalDB()
	for i := 0; i < joinSamples; i++ {
		t0 := time.Now()
		rws, _, err := pdms.NewReformulator(c.net, req.Reform).Reformulate(ctx, req.Peer, req.Query)
		if err != nil {
			return nil, nil, err
		}
		reform = append(reform, time.Since(t0))
		if compile, err = compileEach(db, rws, compile); err != nil {
			return nil, nil, err
		}
	}
	return reform, compile, nil
}

// layerExtra reports the store layer: WAL bytes per write in the last
// measured phase, the setup checkpoint, and store.Append timed by
// replaying that phase's change records onto a throwaway store.
func (f *joinFixture) layerExtra(ph *phaseStats, out *metricSet) error {
	out.add("store.wal_bytes_per_write", ratio(float64(ph.walBytes), float64(ph.writes)), "B/write", ph.writes)
	out.add("store.checkpoint_ms", ms(f.checkpoint), "ms", 1)
	recs, ok := f.src.Persist().Since("fact", f.phaseVer)
	if !ok || len(recs) == 0 {
		return fmt.Errorf("store replay: the log holds no records of the measured phase")
	}
	dir := filepath.Join(f.dir, "replay")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var appends []time.Duration
	for _, rec := range recs {
		t0 := time.Now()
		if err := st.Append(rec); err != nil {
			st.Close()
			return err
		}
		appends = append(appends, time.Since(t0))
	}
	if err := st.Close(); err != nil {
		return err
	}
	out.timing("store.append", appends, "us")
	return os.RemoveAll(dir)
}

func (f *joinFixture) close() error {
	var err error
	f.once.Do(func() {
		err = errors.Join(f.srv.close(), f.src.ClosePersist(), os.RemoveAll(f.dir))
	})
	return err
}
