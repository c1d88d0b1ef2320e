package cq

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// This file is the parallel union executor: the branches of a
// reformulated query (one compiled plan per rewriting) run concurrently
// on a bounded worker pool, deduplicating through one shared
// relation.ShardedTupleSet, with answers fanned in to the caller's
// yield on the calling goroutine. Limit stays exact — distinct answers
// claim delivery slots through a shared atomic counter, and the Nth
// claim cancels every in-flight branch — and both cancellation and a
// consumer break drain the pool before StreamUnionOpts returns, so no
// goroutine outlives the call.

// parallelMinCost is the auto-mode threshold: a union is only worth
// fanning out when the branches' estimated execution costs (rows
// examined, per the cost-based planner; driver-atom rows for plans
// without statistics) together reach it. Below it the per-query worker
// spawn and channel hop cost more than the joins themselves, so auto
// mode keeps the sequential path (the warm small-network serving case).
const parallelMinCost = 512

// effectiveParallelism resolves opts.Parallelism to a worker count for
// this union: explicit N > 1 forces N workers, explicit 1 (or a
// single-branch union) is sequential, and 0 picks GOMAXPROCS when
// worthParallel says the union is heavy enough. Auto mode also stays
// sequential for small limits (existence queries): the sequential path
// typically hits its Nth distinct answer before a worker pool would
// finish spinning up, and keeps the Limit=1 fast path allocation-lean.
// The result is capped at the branch count — intra-branch joins are
// not split.
func effectiveParallelism(plans []*Plan, opts ExecOptions) int {
	par := opts.Parallelism
	switch {
	case par < 0:
		par = 1
	case par == 0:
		par = runtime.GOMAXPROCS(0)
		if par > 1 && opts.Limit > 0 && opts.Limit <= parallelBatch {
			par = 1
		}
		if par > 1 && !worthParallel(plans) {
			par = 1
		}
	}
	if par > len(plans) {
		par = len(plans)
	}
	if par < 1 {
		par = 1
	}
	return par
}

// worthParallel estimates whether a union pays for the fan-in
// machinery: at least two branches, and the branches' estimated costs
// (the planner's rows-examined estimates) total parallelMinCost or
// more. With statistics the estimate accounts for join selectivity —
// a wide union of highly selective probes stays sequential where the
// old driver-atom-rows guess would have paid for a pool it could not
// use.
func worthParallel(plans []*Plan) bool {
	if len(plans) < 2 {
		return false
	}
	cost := 0.0
	for _, p := range plans {
		cost += p.estCostLive()
		if cost >= parallelMinCost {
			return true
		}
	}
	return false
}

// parallelBatch is how many tuples a worker accumulates before one
// fan-in channel send — per-tuple sends would serialize the workers on
// the channel lock for union results numbering in the thousands. A
// batch is also flushed whenever a branch finishes (and when the limit
// fills), so first-answer latency stays bounded by one branch's
// produce rate, not by the batch size.
const parallelBatch = 32

// streamUnionParallel executes the union's branches on par workers.
//
// Protocol:
//   - Workers claim branch indexes from a shared atomic cursor and run
//     each branch's join against a branch context derived from ctx.
//   - Deduplication happens inside the join (the kernel's leaf adds to
//     the shared sharded set before yielding), so each distinct tuple
//     surfaces in exactly one worker.
//   - With a limit, a surfacing tuple claims a delivery slot from the
//     shared counter; claims beyond the limit are dropped, and the
//     claim that fills the limit cancels all in-flight branches. A
//     claimed tuple is always flushed — workers flush their batch
//     after every branch, success or failure, and the consumer drains
//     the channel until it closes, so sends cannot deadlock and
//     exactly min(Limit, |answers|) tuples are delivered.
//   - yield runs on the calling goroutine only. A false return cancels
//     the branches; the loop then drains remaining in-flight batches.
//   - The results channel closes only after every worker returned, so
//     by the time this function returns no goroutine it started is
//     alive.
func streamUnionParallel(ctx context.Context, plans []*Plan, opts ExecOptions, par int, yield func(relation.Tuple) bool) error {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	seen := relation.NewShardedTupleSet(4 * par)
	out := make(chan []relation.Tuple, par)
	limit := int64(opts.Limit)
	var claimed atomic.Int64
	var nextBranch atomic.Int64
	var errOnce sync.Once
	var branchErr error

	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			buf := make([]relation.Tuple, 0, parallelBatch)
			flush := func() {
				if len(buf) > 0 {
					out <- buf
					buf = make([]relation.Tuple, 0, parallelBatch)
				}
			}
			// Per-worker batch kernel state (tuple mode: answers decode
			// before the shared sharded set, so dedup spans workers),
			// lazily acquired and reused across this worker's branches.
			var be *batchExec
			defer func() {
				if be != nil {
					be.release()
				}
			}()
			for {
				i := int(nextBranch.Add(1)) - 1
				if i >= len(plans) || bctx.Err() != nil {
					return
				}
				workerYield := func(t relation.Tuple) bool {
					if limit > 0 {
						c := claimed.Add(1)
						if c > limit {
							return false
						}
						buf = append(buf, t)
						if c == limit {
							flush()
							cancel()
							return false
						}
					} else {
						buf = append(buf, t)
					}
					if len(buf) == parallelBatch {
						flush()
					}
					return true
				}
				if be == nil {
					be = getBatchExec(len(plans[i].headSlots), false)
				}
				err := be.run(bctx, plans[i], seen, workerYield)
				opts.Kernels.noteBatch()
				// Flush before looking at err: slot-claiming tuples
				// buffered by a branch that was then cancelled (limit
				// filled elsewhere) must still reach the consumer.
				flush()
				if err != nil {
					errOnce.Do(func() { branchErr = err })
					cancel()
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	stopped := false
	func() {
		// A panicking yield would abandon the drain loop with workers
		// parked on claimed-slot sends; cancel and drain before letting
		// the panic continue so no goroutine outlives the call even then.
		defer func() {
			if r := recover(); r != nil {
				cancel()
				for range out {
				}
				panic(r)
			}
		}()
		for batch := range out {
			for _, t := range batch {
				if stopped {
					continue // drain so claimed-slot sends never block forever
				}
				if !yield(t) {
					stopped = true
					cancel()
				}
			}
		}
	}()
	switch {
	case stopped:
		return nil // consumer break, same contract as sequential
	case limit > 0 && claimed.Load() >= limit:
		return nil // limit reached
	case ctx.Err() != nil:
		return ctx.Err()
	}
	// branchErr can only be bctx's cancellation error here, and bctx
	// only dies through the cases handled above — but surface it rather
	// than swallow a future error source.
	return branchErr
}
