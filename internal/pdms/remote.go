package pdms

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
	"repro/internal/view"
)

// This file implements remote peers: participants whose data lives on
// another node, reached through a Transport. A RemotePeer keeps a local
// mirror — the remote schemas plus lazily synced replica relations — so
// reformulation, cost-based planning, and the compiled engine run
// unchanged: they see ordinary relations whose rows happen to have
// streamed in over the wire. Freshness is fingerprint-driven: every
// Query starts with one cheap State round trip per remote peer, schema
// growth flows into the same atomic topoVersion path local AddSchema
// uses (so cached reformulations die exactly like they do for local
// topology changes), and only referenced relations whose remote
// (version, rows) fingerprint moved are refreshed — warm queries move
// no tuples. A replica changes only through install (a complete scan)
// or replay (verified delta or pushed records, in place), and both keep
// placed materialized views in step.

// RemotePeer is a network participant served over a Transport. Its
// mirror peer carries the remote schemas and replica relations; the
// coordinator plans and executes against those replicas, so what stays
// node-local is exactly the query engine — only base tuples cross the
// wire.
type RemotePeer struct {
	name   string
	tr     Transport
	mirror *Peer
	// schemaVer is the last remote schema version synced into the mirror.
	schemaVer uint64
	// replicas maps relation name → the state of its mirror replica;
	// latest holds the statistics of the last State answer or push ack,
	// advanced by pushed records (the ship-vs-mirror cost model reads
	// them too). Both are guarded by the owning Network's remoteMu.
	replicas map[string]replica
	latest   map[string]relation.Stats
	// lastSync is when the last successful freshness probe completed;
	// lastErr is the failure that marked the peer down. Both guarded by
	// the owning Network's remoteMu.
	lastSync time.Time
	lastErr  error
	// down marks a peer whose retries were exhausted: stale-tolerant
	// queries stop probing it (they serve the last-good mirror
	// immediately) until the background prober, or a fresh-only query,
	// reaches it again. Atomic because the prober goroutine reads and
	// clears it without remoteMu.
	down atomic.Bool
	// proberMu guards proberStop, the cancel channel of the background
	// prober launched when the peer goes down. Its own mutex because
	// RemovePeer and the prober itself touch it outside remoteMu.
	proberMu   sync.Mutex
	proberStop chan struct{}
	// pushLive marks an established push subscription: pushed records
	// keep latest and replicas current, so queries skip the State probe
	// entirely. Atomic because the subscription manager flips it while
	// queries read it under remoteMu.
	pushLive atomic.Bool
	// pushMu guards the push subscription manager's lifecycle handles
	// (StartPush/StopPush); its own mutex because StopPush joins the
	// manager goroutine, which itself takes remoteMu.
	pushMu     sync.Mutex
	pushCancel context.CancelFunc
	pushDone   chan struct{}
}

// DegradedPeer reports one remote peer a request could not freshen:
// its answers come from the peer's last-good mirror snapshot instead
// of live data. Err is the failure that forced the degradation (an
// ErrPeerUnreachable- or ErrBudgetExhausted-class error); LastSync is
// when the mirror was last verified fresh.
type DegradedPeer struct {
	Peer     string
	Err      error
	LastSync time.Time
}

// Down reports whether the peer is currently marked down — retries
// against it were exhausted and the background prober has not yet seen
// it answer.
func (rp *RemotePeer) Down() bool { return rp.down.Load() }

// Remote returns the named remote peer, or nil — the handle for
// observing down/degraded state from tests and harnesses.
func (n *Network) Remote(name string) *RemotePeer {
	n.remoteMu.RLock()
	defer n.remoteMu.RUnlock()
	return n.remotes[name]
}

// DefaultDownProbeInterval is how often the background prober checks a
// down peer when Network.DownProbeInterval is zero.
const DefaultDownProbeInterval = 2 * time.Second

// markDown records a degradation-class failure against the peer and
// launches the background prober (once per down transition). Caller
// holds n.remoteMu.
func (n *Network) markDown(rp *RemotePeer, err error) {
	rp.lastErr = err
	if rp.down.CompareAndSwap(false, true) {
		n.startProber(rp)
	}
}

// startProber launches the goroutine that periodically probes a down
// peer with one cheap State call until the peer answers (the down flag
// clears and the next query re-syncs in full), the flag is cleared by
// a successful foreground sync, or RemovePeer stops it. Only the flag
// flips here: fingerprints and mirror state stay untouched, so
// recovery always flows through the ordinary sync path under remoteMu.
func (n *Network) startProber(rp *RemotePeer) {
	interval := n.DownProbeInterval
	if interval <= 0 {
		interval = DefaultDownProbeInterval
	}
	stop := make(chan struct{})
	rp.proberMu.Lock()
	if rp.proberStop != nil {
		close(rp.proberStop) // replace a stale prober from a previous outage
	}
	rp.proberStop = stop
	rp.proberMu.Unlock()
	go func() {
		defer func() {
			rp.proberMu.Lock()
			if rp.proberStop == stop {
				rp.proberStop = nil
			}
			rp.proberMu.Unlock()
		}()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !rp.down.Load() {
					return // a foreground sync already saw the peer answer
				}
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				_, err := rp.tr.State(ctx, rp.name)
				cancel()
				if err == nil {
					rp.down.Store(false)
					return
				}
			}
		}
	}()
}

// stopProber cancels the background prober, if one is running.
func (rp *RemotePeer) stopProber() {
	rp.proberMu.Lock()
	if rp.proberStop != nil {
		close(rp.proberStop)
		rp.proberStop = nil
	}
	rp.proberMu.Unlock()
}

// degradable reports whether a remote-operation failure may be
// absorbed by serving the last-good mirror: unreachable-class errors,
// spent budgets, hung-peer timeouts, and transient failures that
// outlasted their retries qualify. Deterministic protocol errors
// (version mismatch, unknown names) and the caller's own cancellation
// do not — degrading would mask a configuration bug or a dead request.
func degradable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	if errors.Is(err, ErrVersionMismatch) {
		return false
	}
	return errors.Is(err, ErrPeerUnreachable) || errors.Is(err, ErrBudgetExhausted) ||
		errors.Is(err, context.DeadlineExceeded) || Retryable(err)
}

// remoteFP is the freshness fingerprint of one remote relation.
type remoteFP struct {
	ver  uint64
	rows int
}

// replica is what the coordinator knows about one mirror replica: the
// remote fingerprint its rows reflect, and whether the push path moved
// it since a query last referenced it (the flag behind the "push" entry
// in Cursor.SyncPaths).
type replica struct {
	fp     remoteFP
	pushed bool
}

// target returns the fingerprint rel's replica must reach to be
// current, and whether the remote serves rel at all. Caller holds the
// owning Network's remoteMu.
func (rp *RemotePeer) target(rel string) (remoteFP, bool) {
	st, ok := rp.latest[rel]
	return remoteFP{ver: st.Version, rows: st.Rows}, ok
}

// Name returns the remote peer's name.
func (rp *RemotePeer) Name() string { return rp.name }

// fetchParallelism bounds how many relation scans the fetch path runs
// concurrently — the remote analogue of the PR 3 union worker pool's
// GOMAXPROCS cap (fetches are network-bound, so a small multiple).
func fetchParallelism(jobs int) int {
	par := 2 * runtime.GOMAXPROCS(0)
	if par > jobs {
		par = jobs
	}
	if par < 1 {
		par = 1
	}
	return par
}

// AddRemotePeer registers a peer whose data is served by tr under the
// given name: the remote schemas are fetched and mirrored locally, and
// from then on Network.Query keeps the mirror's replicas fresh,
// fetching lazily — only relations the query's rewritings actually
// reference, only when their remote fingerprint moved. Like AddPeer it
// requires external synchronization with readers. The transport is
// owned by the caller (one transport may serve many peers); RemovePeer
// does not close it.
func (n *Network) AddRemotePeer(ctx context.Context, name string, tr Transport) (*RemotePeer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, dup := n.peers[name]; dup {
		return nil, fmt.Errorf("pdms: duplicate peer %q", name)
	}
	st, err := tr.State(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("pdms: remote peer %s state: %w", name, err)
	}
	schemas, err := tr.Schemas(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("pdms: remote peer %s schemas: %w", name, err)
	}
	mirror := NewPeer(name, schemas...)
	if err := n.AddPeer(mirror); err != nil {
		return nil, err
	}
	rp := &RemotePeer{
		name:     name,
		tr:       tr,
		mirror:   mirror,
		replicas: make(map[string]replica),
		latest:   make(map[string]relation.Stats, len(st.Relations)),
	}
	rp.adoptState(st, nil)
	if n.remotes == nil {
		n.remotes = make(map[string]*RemotePeer)
	}
	n.remotes[name] = rp
	return rp, nil
}

// adoptState folds one answer from the peer — a State probe's or a
// push subscription's ack — into the mirror: schemas fetched because
// the remote schema version moved grow it (pass nil when it did not
// move), the per-relation statistics replace the latest ones (refilled
// in place, so the per-query probe allocates no map), and the peer
// counts as synced and up again. Caller holds the owning Network's
// remoteMu write side, or owns rp exclusively.
func (rp *RemotePeer) adoptState(st PeerState, schemas []relation.Schema) {
	for _, s := range schemas {
		if !rp.mirror.HasRelation(s.Name) {
			rp.mirror.AddSchema(s)
		}
	}
	rp.schemaVer = st.SchemaVersion
	clear(rp.latest)
	for _, ns := range st.Relations {
		rp.latest[ns.Name] = ns.Stats
	}
	rp.lastSync = time.Now()
	rp.lastErr = nil
	rp.down.Store(false)
}

// syncRemotes refreshes every remote peer's fingerprint with one State
// round trip each (retried under the request's policy), and folds
// remote schema growth into the mirror via Peer.AddSchema — which
// notifies the joined networks through the same atomic topoVersion
// bump a local schema change takes, so reformulation cache keys
// derived before the remote change can never be reused.
//
// Failure handling is where the request's degradation contract lives:
// a peer whose probe exhausts its retries fails the whole request
// unless allowStale is set, in which case the peer is recorded in
// degraded, marked down (the background prober takes over), and its
// mirror serves whatever the last successful sync left behind. Peers
// already down are not probed at all on the stale-tolerant path —
// their queries pay zero retry latency. retries reports how many
// retries the probes actually spent. Caller holds n.remoteMu.
func (n *Network) syncRemotes(ctx context.Context, pol RetryPolicy, budget *retryBudget,
	allowStale bool, degraded map[string]*DegradedPeer) (retries int, err error) {
	names := make([]string, 0, len(n.remotes))
	for name := range n.remotes {
		rp := n.remotes[name]
		if rp.pushLive.Load() {
			// Live push subscription: pushed records keep this peer's
			// fingerprints (and schema) current, so the probe would learn
			// nothing — the watch path's zero-State-probe property.
			continue
		}
		if allowStale && rp.down.Load() {
			// Known-down peer: skip the probe, serve the last-good mirror.
			degraded[name] = &DegradedPeer{Peer: name, Err: rp.lastErr, LastSync: rp.lastSync}
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	// Probe concurrently: the States are independent reads of distinct
	// peers, and serializing them would make every query's prepare
	// latency linear in remote peers × round-trip time. The bounded
	// fan-out mirrors fetchReferenced's pool; mirror mutation stays on
	// this goroutine (which holds remoteMu's write side).
	states := make([]PeerState, len(names))
	errs := make([]error, len(names))
	var retried atomic.Int64
	probe := func(i int) {
		rp := n.remotes[names[i]]
		r, perr := retryOp(ctx, pol, budget, func(actx context.Context) error {
			st, serr := rp.tr.State(actx, names[i])
			if serr == nil {
				states[i] = st
			}
			return serr
		})
		retried.Add(int64(r))
		errs[i] = perr
	}
	if len(names) == 1 {
		probe(0)
	} else {
		work := make(chan int, len(names))
		for i := range names {
			work <- i
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < fetchParallelism(len(names)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					probe(i)
				}
			}()
		}
		wg.Wait()
	}
	retries = int(retried.Load())
	for i, name := range names {
		rp, st, perr := n.remotes[name], states[i], errs[i]
		var schemas []relation.Schema
		if perr == nil && st.SchemaVersion != rp.schemaVer {
			r, serr := retryOp(ctx, pol, budget, func(actx context.Context) error {
				var e error
				schemas, e = rp.tr.Schemas(actx, name)
				return e
			})
			retries += r
			perr = serr
		}
		if perr != nil {
			if allowStale && degradable(ctx, perr) {
				degraded[name] = &DegradedPeer{Peer: name, Err: perr, LastSync: rp.lastSync}
				n.markDown(rp, perr)
				continue
			}
			return retries, fmt.Errorf("pdms: sync remote peer %s: %w", name, perr)
		}
		rp.adoptState(st, schemas)
	}
	return retries, nil
}

// fetchJob names one stale replica to refresh. When the mirror already
// holds a replica built from a known fingerprint, base carries that
// replica and have its fingerprint, so the worker can try a delta
// catch-up — verified against base, which the worker only reads —
// before falling back to a full scan; base is captured while the caller
// holds remoteMu, because workers must not read the mirror store while
// the drain loop installs replicas into it.
type fetchJob struct {
	rp   *RemotePeer
	rel  string
	want remoteFP
	base *relation.Relation
	have remoteFP
	// ship, when set, tells the worker to refresh the relation by remote
	// sub-plan execution — streaming O(answers) bytes into a per-request
	// overlay replica — before considering the delta and scan paths.
	ship *shipSpec
}

// fetchResult is one fetch worker's outcome. path says how the relation
// was refreshed, and is what the drain loop switches on: "ship" (rel is
// a partial replica for the per-request overlay, never the mirror),
// "delta" (recs are change records verified against the job's base,
// landing on got), or "scan" (rel is a complete replica built to the
// job's want).
type fetchResult struct {
	job  fetchJob
	path string
	rel  *relation.Relation
	recs []relation.ChangeRecord
	got  remoteFP
	err  error
}

// RemoteSyncCounts reports how many replica refreshes the network has
// performed by full relation scan, by delta catch-up, and by shipped
// sub-plan since creation — the observability the durability tests (and
// revere query's sync line) use to prove a restarted durable peer
// rejoined without re-scans, and the differential tests use to prove
// the ship path actually ran.
func (n *Network) RemoteSyncCounts() (scans, deltas, ships uint64) {
	return n.remoteScans.Load(), n.remoteDeltas.Load(), n.remoteShips.Load()
}

// verifyDelta checks change records against the replica base, built
// from fingerprint have, without mutating it, and returns the
// fingerprint replaying them lands on. It checks every record — the
// relation name, strictly rising versions, schema compatibility, the
// post-change row count — and that the batch reaches version want.ver
// (pass a zero want when any end point will do). A delete removes every
// copy of its tuple: the replica's own copies, counted once up front,
// plus those the batch inserted — and none of either once an earlier
// delete in the batch removed them. Only an accepted batch is replayed
// (replay), so a last-good mirror is never half-applied.
func verifyDelta(base *relation.Relation, rel string, have, want remoteFP, recs []relation.ChangeRecord) (remoteFP, error) {
	var copies relation.TupleMap[int]
	for _, rec := range recs {
		if rec.Op == relation.ChangeDelete {
			if _, counted := copies.Get(rec.Tuple); !counted {
				copies.Put(rec.Tuple, base.Count(rec.Tuple))
			}
		}
	}
	fp, rows := have, base.Len()
	for _, rec := range recs {
		if rec.Rel != rel {
			return remoteFP{}, fmt.Errorf("delta for %s carries record of %s", rel, rec.Rel)
		}
		if rec.Ver <= fp.ver {
			return remoteFP{}, fmt.Errorf("delta version %d does not advance past %d", rec.Ver, fp.ver)
		}
		if rec.Op != relation.ChangeInsert && rec.Op != relation.ChangeDelete {
			return remoteFP{}, fmt.Errorf("delta carries unexpected op %d", rec.Op)
		}
		if err := base.Schema.Compatible(rec.Tuple); err != nil {
			return remoteFP{}, err
		}
		n, counted := copies.Get(rec.Tuple)
		if rec.Op == relation.ChangeInsert {
			rows++
			if counted {
				copies.Put(rec.Tuple, n+1)
			}
		} else {
			rows -= n
			copies.Put(rec.Tuple, 0)
		}
		if rows != rec.Rows {
			return remoteFP{}, fmt.Errorf("delta replay leaves %d rows, record says %d", rows, rec.Rows)
		}
		fp = remoteFP{ver: rec.Ver, rows: rec.Rows}
	}
	if fp.ver < want.ver {
		return remoteFP{}, fmt.Errorf("delta stops at version %d, short of %d", fp.ver, want.ver)
	}
	return fp, nil
}

// replay applies change records verifyDelta accepted to rp's replica of
// rel in place, records to as the replica's new state, and maintains
// placed materialized views incrementally: the base updategram flows
// through fanoutViews between a global snapshot taken before the apply
// and one taken after, with a re-derivation of the views that read rel
// as the fallback truth. It is the one replay path — the delta catch-up
// and the push applier both end here.
//
// Mutating the replica in place is safe because replicas change only on
// the goroutine holding n.remoteMu's write side (fetch workers only read
// them), and cursors only ever read SnapshotAs snapshots, which no
// mutation of the replica changes.
func (n *Network) replay(rp *RemotePeer, rel string, recs []relation.ChangeRecord, to replica) {
	var pre *relation.Database
	if n.hasSubs() {
		// The updategram's pre-state: taken before the in-place apply,
		// which the snapshot's copies do not see.
		pre = n.globalSnapshot()
	}
	r := rp.mirror.Store.Get(rel)
	var u view.Updategram
	for _, rec := range recs {
		if rec.Op == relation.ChangeDelete {
			r.Delete(rec.Tuple)
			u.Deletes = append(u.Deletes, rec.Tuple)
		} else if err := r.Insert(rec.Tuple); err != nil {
			panic(fmt.Sprintf("pdms: verified change record rejected: %v", err))
		} else {
			u.Inserts = append(u.Inserts, rec.Tuple)
		}
	}
	rp.replicas[rel] = to
	if pre != nil {
		u.Relation = glav.QualifiedName(rp.name, rel)
		post := n.globalSnapshot()
		if err := n.fanoutViews(pre, post, u, &PublishStats{}); err != nil {
			n.refreshViews(post, u.Relation)
		}
	}
}

// install replaces rp's replica of a relation with a complete scan
// built to fingerprint fp. Caller holds n.remoteMu's write side, and
// re-derives the placed views that read the relation (refreshViews).
func (rp *RemotePeer) install(r *relation.Relation, fp remoteFP) {
	rp.mirror.Store.Put(r)
	rp.replicas[r.Schema.Name] = replica{fp: fp}
}

// fetchReferenced brings every remote relation referenced by the
// rewritings up to date with the fingerprints syncRemotes just
// recorded. Stale replicas are refreshed concurrently on a bounded
// worker pool (the PR 3 fan-out shape: a job channel, first
// non-absorbable error cancels the rest), each fetch retried under the
// request's policy. Workers only do I/O and read: tryDelta verifies a
// delta catch-up against the replica, and a scan streams tuple batches
// into a fresh relation built through InsertBatch so column statistics
// accrue for the cost-based planner (a failed attempt discards its
// partial relation). Replicas change only here, in the drain loop:
// replay applies verified records in place, install swaps in a complete
// scan. Either moves the global snapshot fingerprint, so plans compiled
// from the stale replica are recompiled, and keeps placed views in step.
//
// Peers already recorded in degraded are skipped (their replicas
// deliberately stay at the last-good snapshot), and when allowStale
// is set, a peer whose fetch exhausts its retries mid-query joins them
// instead of failing the request — covering peers that die between
// the freshness probe and the fetch. Caller holds n.remoteMu.
//
// mode and shipBudget select the plan-shipping tier (ship.go): a stale
// relation the mode elects ships its atoms as bound sub-plans and the
// resulting partial replica is returned in ships (keyed by qualified
// name) for a per-request catalog overlay — never published to the
// mirror, whose replicas must stay complete. A ship the serving side
// rejects (ErrPlanUnsupported-class, including row-budget overflows)
// falls back to the delta/scan paths inside the same job. paths
// records, per refreshed relation in peer/relation order, which path
// won.
func (n *Network) fetchReferenced(ctx context.Context, rws []cq.Query, pol RetryPolicy,
	budget *retryBudget, allowStale bool, degraded map[string]*DegradedPeer,
	mode ShipMode, shipBudget uint64) (retries int, ships map[string]*relation.Relation, paths []SyncPath, err error) {
	defer func() {
		slices.SortFunc(paths, func(a, b SyncPath) int {
			return cmp.Or(strings.Compare(a.Peer, b.Peer), strings.Compare(a.Rel, b.Rel))
		})
	}()
	var jobs []fetchJob
	queued := make(map[string]bool)
	for _, rw := range rws {
		for _, a := range rw.Body {
			peer, rel := glav.SplitQualified(a.Pred)
			if peer == "" || queued[a.Pred] {
				continue
			}
			rp := n.remotes[peer]
			if rp == nil {
				continue // local peer: the global snapshot already has it
			}
			if degraded[peer] != nil {
				continue // degraded peer: its last-good replicas serve as-is
			}
			queued[a.Pred] = true
			want, known := rp.target(rel)
			if !known {
				continue // mirror schema exists but remote serves no data yet
			}
			job := fetchJob{rp: rp, rel: rel, want: want}
			if cur, ok := rp.replicas[rel]; ok {
				// A query consumes the push-fresh mark: it is reported once,
				// and only while the replica is current.
				rp.replicas[rel] = replica{fp: cur.fp}
				if cur.fp == want {
					if cur.pushed {
						paths = append(paths, SyncPath{Peer: peer, Rel: rel, Path: "push"})
					}
					continue // replica already matches the remote fingerprint
				}
				// Stale but known: hand the worker the current replica and
				// its fingerprint so it can catch up from the serving peer's
				// change log instead of re-scanning.
				job.base, job.have = rp.mirror.Store.Get(rel), cur.fp
			}
			jobs = append(jobs, job)
		}
	}
	if len(jobs) == 0 {
		return 0, nil, paths, nil
	}
	n.planShips(rws, jobs, mode, shipBudget, degraded)

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan fetchJob, len(jobs))
	for _, job := range jobs {
		work <- job
	}
	close(work)
	results := make(chan fetchResult)
	var retried atomic.Int64
	for w := 0; w < fetchParallelism(len(jobs)); w++ {
		go func() {
			for job := range work {
				if err := fctx.Err(); err != nil {
					results <- fetchResult{job: job, err: err}
					continue
				}
				if job.rp.down.Load() {
					// The peer went down while this job queued (another of
					// its fetches exhausted retries): don't spend ours too.
					results <- fetchResult{job: job,
						err: fmt.Errorf("%w: peer %s marked down", ErrPeerUnreachable, job.rp.name)}
					continue
				}
				if job.ship != nil {
					// Plan shipping first: execute the relation's bound
					// sub-plans at the serving peer and reassemble a partial
					// replica from the answers. A rejection the serving side
					// types as ErrPlanUnsupported — old server, uncompilable
					// plan, row-budget overflow — falls through to the mirror
					// paths below on the same connection; any other failure is
					// the job's failure, like a failed scan.
					dst, r, serr := n.runShip(fctx, pol, budget, job)
					retried.Add(int64(r))
					if serr == nil {
						results <- fetchResult{job: job, path: "ship", rel: dst}
						continue
					}
					if !errors.Is(serr, ErrPlanUnsupported) {
						results <- fetchResult{job: job, err: serr}
						continue
					}
				}
				// Cheap path first: catch up from the serving peer's change
				// log instead of re-reading the relation.
				res, r := n.tryDelta(fctx, pol, budget, job)
				retried.Add(int64(r))
				if res.path != "" || res.err != nil {
					results <- res
					continue
				}
				var dst *relation.Relation
				r, err := retryOp(fctx, pol, budget, func(actx context.Context) error {
					// Fresh destination per attempt: a dropped scan's partial
					// tuples must never leak into the retry.
					dst = relation.New(job.rp.mirror.Schema(job.rel))
					return job.rp.tr.Scan(actx, job.rp.name, job.rel, dst.InsertBatch)
				})
				retried.Add(int64(r))
				results <- fetchResult{job: job, path: "scan", rel: dst, err: err}
			}
		}()
	}
	// Every queued job yields exactly one result, so draining is
	// deadlock-free even when an error cancels the stragglers.
	var firstErr error
	var replaced []string
	for pending := len(jobs); pending > 0; pending-- {
		res := <-results
		rp, rel := res.job.rp, res.job.rel
		if res.err != nil {
			if allowStale && degradable(ctx, res.err) {
				if degraded[rp.name] == nil {
					degraded[rp.name] = &DegradedPeer{Peer: rp.name, Err: res.err, LastSync: rp.lastSync}
					n.markDown(rp, res.err)
				}
				continue // last-good replica keeps serving; don't cancel the rest
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("pdms: fetch %s.%s: %w", rp.name, rel, res.err)
				cancel() // abort the remaining fetches
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		switch res.path {
		case "ship":
			if ships == nil {
				ships = make(map[string]*relation.Relation)
			}
			ships[glav.QualifiedName(rp.name, rel)] = res.rel
			n.remoteShips.Add(1)
		case "delta":
			n.replay(rp, rel, res.recs, replica{fp: res.got})
			n.remoteDeltas.Add(1)
		case "scan":
			rp.install(res.rel, res.job.want)
			replaced = append(replaced, glav.QualifiedName(rp.name, rel))
			n.remoteScans.Add(1)
		}
		paths = append(paths, SyncPath{Peer: rp.name, Rel: rel, Path: res.path})
	}
	if len(replaced) > 0 && n.hasSubs() {
		// Placed views cannot follow a whole-relation swap incrementally.
		n.refreshViews(n.globalSnapshot(), replaced...)
	}
	return int(retried.Load()), ships, paths, firstErr
}

// tryDelta fetches and verifies (but does not replay) the delta
// catch-up for one stale replica. The result's path is empty, with a
// nil error, when the cheap path does not apply — the transport cannot
// ship deltas, the replica has no known fingerprint, the serving peer's
// log no longer covers the range, or the records fail verification —
// and the caller falls back to a full scan. A transport error is the
// result's err: a scan against the same unreachable peer would only
// spend more retries, so it flows into ordinary degradation handling.
func (n *Network) tryDelta(ctx context.Context, pol RetryPolicy, budget *retryBudget,
	job fetchJob) (res fetchResult, retries int) {
	dt, can := job.rp.tr.(DeltaTransport)
	if !can || job.base == nil {
		return fetchResult{}, 0
	}
	var recs []relation.ChangeRecord
	var covered bool
	retries, err := retryOp(ctx, pol, budget, func(actx context.Context) error {
		var derr error
		recs, covered, derr = dt.Delta(actx, job.rp.name, job.rel, job.have.ver)
		return derr
	})
	if err != nil {
		return fetchResult{job: job, err: err}, retries
	}
	if !covered {
		return fetchResult{}, retries
	}
	got, verr := verifyDelta(job.base, job.rel, job.have, job.want, recs)
	if verr != nil {
		// Inconsistent records, or a catch-up that fell short of the
		// fingerprint the State probe promised: the scan is the truth.
		return fetchResult{}, retries
	}
	return fetchResult{job: job, path: "delta", recs: recs, got: got}, retries
}

// invalidateRemotesLocked drops every replica fingerprint so the next
// query re-fetches whatever it references, InvalidateCaches's
// out-of-band hammer extended to the distributed tier. Caller holds
// n.remoteMu.
func (n *Network) invalidateRemotesLocked() {
	for _, rp := range n.remotes {
		clear(rp.replicas)
	}
}
