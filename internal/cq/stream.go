package cq

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"repro/internal/relation"
)

// This file is the streaming face of the compiled engine. The batch
// kernel (batch.go) produces each distinct answer as its leaf decodes
// it; Stream and StreamUnion route answers through a caller-supplied
// yield instead of materializing a relation, with cooperative
// cancellation (ctx is polled at batch boundaries) and an optional
// distinct-answer limit that aborts the join as soon as it is reached.
// Exec/ExecUnion/Eval remain as thin materializing wrappers.

// ExecOptions tunes one streaming execution.
type ExecOptions struct {
	// Limit stops execution after this many distinct answers have been
	// yielded (0 = unlimited). Because deduplication happens before the
	// limit check, exactly min(Limit, |answers|) tuples are delivered —
	// sequential and parallel execution alike.
	Limit int
	// Parallelism is the number of union branches executing
	// concurrently. 0 = auto: up to GOMAXPROCS workers when the union
	// is wide and heavy enough to pay for the fan-in machinery, else
	// sequential. 1 = always sequential. N > 1 forces a pool of N
	// workers (capped at the branch count). Answers of a parallel union
	// arrive in nondeterministic order; the answer set, deduplication,
	// and Limit exactness are identical to sequential execution.
	Parallelism int
	// Kernels, when non-nil, counts how many branches of this execution
	// ran on the batch kernel.
	Kernels *KernelCounts
}

// Stream executes the plan, calling yield for every distinct answer as
// the join produces it. Enumeration stops when yield returns false
// (not an error) or when ctx is cancelled (returns ctx.Err()). The
// yielded tuple is owned by the consumer; the engine never mutates it.
func (p *Plan) Stream(ctx context.Context, yield func(relation.Tuple) bool) error {
	return p.StreamOpts(ctx, ExecOptions{}, yield)
}

// StreamOpts is Stream with an options block; see ExecOptions.
func (p *Plan) StreamOpts(ctx context.Context, opts ExecOptions, yield func(relation.Tuple) bool) error {
	return StreamUnionOpts(ctx, []*Plan{p}, opts, yield)
}

// StreamUnion executes precompiled plans as a union of conjunctive
// queries, streaming distinct tuples through yield as branches execute.
// One hash set is shared across all branches, so a tuple produced by
// several rewritings is yielded once. All plans must share head arity.
func StreamUnion(ctx context.Context, plans []*Plan, yield func(relation.Tuple) bool) error {
	return StreamUnionOpts(ctx, plans, ExecOptions{}, yield)
}

// StreamUnionOpts is StreamUnion with an options block. The limit is
// pushed down into the shared dedup set: the join tree aborts — across
// all remaining branches — the moment the Nth distinct answer has been
// yielded. Limited unions run their branches cheapest-first (by the
// planner's cost estimates), so the limit tends to fill before the
// expensive branches start. When opts.Parallelism resolves to more than
// one worker the branches execute concurrently (see
// streamUnionParallel); yield is still invoked from this goroutine
// only.
func StreamUnionOpts(ctx context.Context, plans []*Plan, opts ExecOptions, yield func(relation.Tuple) bool) error {
	if len(plans) == 0 {
		return fmt.Errorf("cq: empty union")
	}
	arity := len(plans[0].headSlots)
	for _, p := range plans {
		if len(p.headSlots) != arity {
			return fmt.Errorf("union: arity mismatch %d vs %d", arity, len(p.headSlots))
		}
	}
	if opts.Limit > 0 && len(plans) > 1 {
		plans = plansCheapestFirst(plans)
	}
	if par := effectiveParallelism(plans, opts); par > 1 {
		return streamUnionParallel(ctx, plans, opts, par, yield)
	}
	// The union dedups over code vectors in one shared output encoding.
	be := getBatchExec(arity, true)
	defer be.release()
	stopped := false
	emitted := 0
	inner := func(t relation.Tuple) bool {
		if !yield(t) {
			stopped = true
			return false
		}
		emitted++
		if opts.Limit > 0 && emitted >= opts.Limit {
			stopped = true
			return false
		}
		return true
	}
	for _, p := range plans {
		err := be.run(ctx, p, nil, inner)
		opts.Kernels.noteBatch()
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// plansCheapestFirst returns the plans ordered by ascending estimated
// cost. The input — typically a slice cached and shared across
// concurrent requests — is never mutated; the sort is stable so
// equal-cost branches keep their reformulation order and plans stay
// deterministic.
func plansCheapestFirst(plans []*Plan) []*Plan {
	type costed struct {
		p    *Plan
		cost float64
	}
	cs := make([]costed, len(plans))
	for i, p := range plans {
		cs[i] = costed{p: p, cost: p.estCostLive()}
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].cost < cs[j].cost })
	out := make([]*Plan, len(cs))
	for i, c := range cs {
		out[i] = c.p
	}
	return out
}

// Tuples adapts the plan to a range-over-func iterator: each pair is
// one distinct answer with a nil error, except a final (nil, err) pair
// if execution failed (cancellation). Breaking out of the range stops
// the join tree immediately.
func (p *Plan) Tuples(ctx context.Context) iter.Seq2[relation.Tuple, error] {
	return UnionTuples(ctx, []*Plan{p}, ExecOptions{})
}

// UnionTuples is the iterator form of StreamUnionOpts; see Tuples.
func UnionTuples(ctx context.Context, plans []*Plan, opts ExecOptions) iter.Seq2[relation.Tuple, error] {
	return func(yield func(relation.Tuple, error) bool) {
		broke := false
		err := StreamUnionOpts(ctx, plans, opts, func(t relation.Tuple) bool {
			if !yield(t, nil) {
				broke = true
				return false
			}
			return true
		})
		if err != nil && !broke {
			yield(nil, err)
		}
	}
}

// MaterializeUnion drains StreamUnionOpts into a relation whose schema
// comes from the first plan — the materializing wrapper ExecUnion and
// the PDMS cursor fast path share.
func MaterializeUnion(ctx context.Context, plans []*Plan, opts ExecOptions) (*relation.Relation, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("cq: empty union")
	}
	out := relation.NewResult(plans[0].HeadSchema())
	// Buffer streamed answers and append them in runs: one lock and one
	// capacity reservation per materializeBatch rows instead of per row.
	buf := make([]relation.Tuple, 0, materializeBatch)
	var insertErr error
	err := StreamUnionOpts(ctx, plans, opts, func(t relation.Tuple) bool {
		buf = append(buf, t)
		if len(buf) == materializeBatch {
			if e := out.InsertBatch(buf); e != nil {
				insertErr = e
				return false
			}
			buf = buf[:0]
		}
		return true
	})
	if err == nil && insertErr == nil && len(buf) > 0 {
		insertErr = out.InsertBatch(buf)
	}
	if err == nil {
		err = insertErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// materializeBatch is how many streamed answers MaterializeUnion
// buffers between InsertBatch calls.
const materializeBatch = 64

// HeadSchemaFor returns the schema a query's answers carry when
// evaluated against db: one attribute per head variable, typed from the
// schema of the first body atom binding it (TString when no body atom
// resolves). Both the compiled plan and the zero-rewriting answer path
// derive their schema here, so empty and non-empty results agree.
func HeadSchemaFor(db Catalog, q Query) relation.Schema {
	attrs := make([]relation.Attribute, len(q.HeadVars))
	for i, v := range q.HeadVars {
		attrs[i] = relation.Attribute{Name: v, Type: relation.TString}
		if typ, ok := headTypeFromSchema(db, q, v); ok {
			attrs[i].Type = typ
		}
	}
	return relation.Schema{Name: q.HeadPred, Attrs: attrs}
}
