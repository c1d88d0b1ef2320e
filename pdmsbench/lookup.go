package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/pdms"
	"repro/internal/workload"
)

// lookup_zipf: point lookups over a 16-peer chain whose upper half is
// served over TCP. Each request asks for the instructor of one course
// title, drawn Zipf-skewed, in the vocabulary of an origin peer drawn
// uniformly from the local half. Every (origin, title) pair is its own
// reformulation cache key, and the keys the load touches outnumber the
// cache's 4096 entries, so reformulation and its cache do most of the
// work; each query also sends one State probe per served peer.
const (
	lookupPeers     = 16
	lookupServedLo  = 8 // peers lookupServedLo..lookupPeers-1 are served over TCP
	lookupRows      = 512
	lookupMaxDepth  = 17
	lookupClients   = 2
	lookupZipfS     = 1.3
	lookupSampleMax = 32
	// lookupPrefillRanks × lookupServedLo prefill keys fill the 4096
	// entries of the reformulation cache.
	lookupPrefillRanks = 512
)

type lookupFixture struct {
	seed  int64
	g     *workload.GeneratedNetwork
	srv   *server
	title []string          // titles, in seed-shuffled popularity order
	instr map[string]string // the generator's instructor of each title
	once  sync.Once
}

func newLookupFixture(seed int64) (*lookupFixture, error) {
	g, err := workload.GenNetwork(workload.NetworkSpec{Topology: workload.Chain,
		Peers: lookupPeers, Seed: seed, RowsPerPeer: lookupRows})
	if err != nil {
		return nil, err
	}
	f := &lookupFixture{seed: seed, g: g, instr: make(map[string]string)}
	for i, src := range g.Specs {
		tc, ic := columnOf(src, "title"), columnOf(src, "instructor")
		if tc < 0 || ic < 0 {
			return nil, fmt.Errorf("peer %d lacks a title or instructor column", i)
		}
		for _, row := range g.Net.Peer(workload.PeerName(i)).Store.Get(src.Schema.Name).Rows() {
			f.instr[row[tc].S] = row[ic].S
			f.title = append(f.title, row[tc].S)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(f.title), func(i, j int) {
		f.title[i], f.title[j] = f.title[j], f.title[i]
	})
	var served []*pdms.Peer
	for i := lookupServedLo; i < lookupPeers; i++ {
		served = append(served, g.Net.Peer(workload.PeerName(i)))
	}
	if f.srv, err = startServer(false, served...); err != nil {
		return nil, err
	}
	return f, nil
}

// columnOf returns the column of src carrying the mediated tag, or -1.
func columnOf(src *workload.Source, tag string) int {
	for c, name := range src.Schema.AttrNames() {
		if src.Truth[name] == tag {
			return c
		}
	}
	return -1
}

// request builds the lookup of title posed at origin: q(I) :- rel(...)
// with the title column bound and the instructor column projected.
func (f *lookupFixture) request(origin int, title string) pdms.Request {
	src := f.g.Specs[origin]
	args := make([]cq.Term, len(src.Schema.Attrs))
	for c, name := range src.Schema.AttrNames() {
		switch src.Truth[name] {
		case "title":
			args[c] = cq.CS(title)
		case "instructor":
			args[c] = cq.V("I")
		default:
			args[c] = cq.V(fmt.Sprintf("X%d", c))
		}
	}
	return pdms.Request{Peer: workload.PeerName(origin),
		Query:  cq.Query{HeadPred: "q", HeadVars: []string{"I"}, Body: []cq.Atom{{Pred: src.Schema.Name, Args: args}}},
		Reform: pdms.ReformOptions{MaxDepth: lookupMaxDepth}}
}

func (f *lookupFixture) coordinator(ctx context.Context, rec *recorder) (*coord, error) {
	client, tr, err := dial(f.srv.addr, rec)
	if err != nil {
		return nil, err
	}
	c := &coord{client: client, net: pdms.NewNetwork()}
	setup := rec.begin(spanRef{}, "setup")
	defer rec.end(setup)
	sctx := withSpan(ctx, setup)
	for i := 0; i < lookupPeers; i++ {
		name := workload.PeerName(i)
		if i < lookupServedLo {
			if err = c.net.AddPeer(f.g.Net.Peer(name)); err == nil {
				c.shared = append(c.shared, name)
			}
		} else {
			_, err = c.net.AddRemotePeer(sctx, name, tr)
		}
		if err != nil {
			c.close()
			return nil, err
		}
	}
	for _, m := range f.g.Net.Mappings() {
		if err := c.net.AddMapping(m); err != nil {
			c.close()
			return nil, err
		}
	}
	// Fill every mirror: all titles, asked at peer 0, reference all
	// eight served relations.
	req := pdms.Request{Peer: workload.PeerName(0), Query: f.g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: lookupMaxDepth}}
	rel, _, err := runQuery(sctx, c.net, req, nil)
	if err == nil && rel.Len() != len(f.title) {
		err = fmt.Errorf("%d titles, want %d", rel.Len(), len(f.title))
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("lookup_zipf mirror fill: %w", err)
	}
	return c, nil
}

// lookupClient is one closed-loop lookup client's request stream.
type lookupClient struct {
	rnd  *rand.Rand
	zipf *rand.Zipf
}

func (f *lookupFixture) phase(ctx context.Context, c *coord, rec *recorder, warm, measure time.Duration) *phaseStats {
	ph := &phaseStats{}
	clients := make([]lookupClient, lookupClients)
	for i := range clients {
		rnd := rand.New(rand.NewSource(f.seed*1_000_003 + int64(i)))
		clients[i] = lookupClient{rnd: rnd, zipf: rand.NewZipf(rnd, lookupZipfS, 1, uint64(len(f.title)-1))}
	}
	// run drives every client until next reports no further request.
	run := func(next func(i int, cl *lookupClient) (origin, rank int, ok bool), record bool) {
		parts := make([]phaseStats, len(clients))
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func(i int, out *phaseStats) {
				defer wg.Done()
				for {
					origin, rank, ok := next(i, &clients[i])
					if !ok {
						return
					}
					title := f.title[rank]
					out.attempted++
					rel, obs, err := runQuery(ctx, c.net, f.request(origin, title), rec)
					if err == nil {
						err = checkLookup(rel, title, f.instr[title])
					}
					if err != nil {
						out.fail(err)
						continue
					}
					if record {
						out.queries = append(out.queries, obs)
					}
				}
			}(i, &parts[i])
		}
		wg.Wait()
		for _, p := range parts {
			ph.attempted += p.attempted
			ph.failed += p.failed
			ph.failures = append(ph.failures, p.failures...)
			ph.queries = append(ph.queries, p.queries...)
		}
	}
	zipfUntil := func(until time.Time) func(int, *lookupClient) (int, int, bool) {
		return func(_ int, cl *lookupClient) (int, int, bool) {
			rank := int(cl.zipf.Uint64())
			return cl.rnd.Intn(lookupServedLo), rank, time.Now().Before(until)
		}
	}
	// Prefill: ask the most popular titles at every origin once, so the
	// reformulation cache enters the timed warm-up full of the keys the
	// Zipf draw favours. Left to the draw alone, the first fill takes
	// tens of seconds, and how far it got would depend on machine speed.
	sent := make([]int, len(clients))
	run(func(i int, _ *lookupClient) (int, int, bool) {
		k := i + sent[i]*len(clients)
		sent[i]++
		return k % lookupServedLo, k / lookupServedLo, k < lookupPrefillRanks*lookupServedLo
	}, false)
	run(zipfUntil(time.Now().Add(warm)), false)
	wire0 := c.client.WireBytes()
	mem := startMemSampler()
	ph.start = time.Now()
	run(zipfUntil(ph.start.Add(measure)), true)
	ph.end = time.Now()
	ph.memPeaks = mem.finish()
	ph.wireBytes = c.client.WireBytes() - wire0
	return ph
}

func (f *lookupFixture) samples(ctx context.Context, c *coord) (reform, compile []time.Duration, err error) {
	rnd := rand.New(rand.NewSource(f.seed))
	db := c.net.GlobalDB()
	for i := 0; i < lookupSampleMax; i++ {
		req := f.request(rnd.Intn(lookupServedLo), f.title[rnd.Intn(len(f.title))])
		t0 := time.Now()
		rws, _, err := pdms.NewReformulator(c.net, req.Reform).Reformulate(ctx, req.Peer, req.Query)
		if err != nil {
			return nil, nil, err
		}
		reform = append(reform, time.Since(t0))
		compile, err = compileEach(db, rws, compile)
		if err != nil {
			return nil, nil, err
		}
	}
	return reform, compile, nil
}

// compileEach times cq.Compile on each rewriting, appending to out.
func compileEach(db cq.Catalog, rws []cq.Query, out []time.Duration) ([]time.Duration, error) {
	for _, rw := range rws {
		t0 := time.Now()
		if _, err := cq.Compile(db, rw); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// layerExtra reports the store layer's counters: lookup_zipf writes
// nothing.
func (f *lookupFixture) layerExtra(_ *phaseStats, out *metricSet) error {
	out.add("store.wal_bytes_per_write", 0, "B/write", 0)
	return nil
}

func (f *lookupFixture) close() error {
	var err error
	f.once.Do(func() { err = f.srv.close() })
	return err
}
