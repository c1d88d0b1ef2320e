package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// e2eNames are the end-to-end metrics the result line carries on every
// workload (trace 0). They must match BENCHMARK.json's end_to_end list;
// TestDeclaredMetrics checks that. Metrics defined on only some
// workloads (the write and freshness timings) and error_ratio (0 on a
// correct run) are printed but not part of the result line.
var e2eNames = []string{"query_p50_ms", "query_qps", "mem_peak_mb", "setup_s"}

// layerNames are the per-layer metrics the result line carries on
// every workload (trace 1), matching BENCHMARK.json's per_layer list.
// Timings of a layer only some workloads exercise (delta fetch, push
// apply, durable writes) are printed but not part of the result line,
// since on the other workloads they have no sample.
var layerNames = []string{
	"transport.state_per_query", "transport.state_p50_us", "transport.delta_per_query",
	"transport.scan_ms", "transport.wire_bytes_per_op", "transport.busy_frac",
	"pdms.reform_p50_us", "pdms.reform_mean_us", "pdms.reform_cold_us", "pdms.rewritings_per_query",
	"pdms.prepare_p50_us", "pdms.prepare_self_us", "pdms.prepare_self_mean_us", "pdms.scan_apply_ms",
	"pdms.push_records_per_batch", "pdms.push_gaps",
	"pdms.sync_scan_per_query", "pdms.sync_delta_per_query", "pdms.sync_push_per_query",
	"pdms.retries_per_query",
	"cq.exec_p50_us", "cq.answers_per_query", "cq.batch_branch_ratio", "cq.compile_us",
	"store.wal_bytes_per_write",
	"transport.self_share", "pdms.self_share", "cq.self_share", "store.self_share",
	"trace.overhead_ratio",
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when not a sampled statistic
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	list []metric
}

func (m *metricSet) add(name string, value float64, unit string, n int) {
	m.list = append(m.list, metric{name: name, value: value, unit: unit, n: n})
}

func (m *metricSet) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.name == name {
			return x, true
		}
	}
	return metric{}, false
}

// print writes every metric as one "metric <name> <value> <unit>" line.
func (m *metricSet) print(w io.Writer) {
	for _, x := range m.list {
		if x.n > 0 {
			fmt.Fprintf(w, "metric %s %g %s (n=%d)\n", x.name, x.value, x.unit, x.n)
		} else {
			fmt.Fprintf(w, "metric %s %g %s\n", x.name, x.value, x.unit)
		}
	}
}

// timing adds name_p50 and, when the sample supports it, name_p99.
func (m *metricSet) timing(name string, ds []time.Duration, unit string) {
	if len(ds) == 0 {
		return
	}
	conv := ms
	if unit == "us" {
		conv = us
	}
	s := summarizeDur(ds, conv)
	m.add(name+"_p50_"+unit, s.P50, unit, s.N)
	if !math.IsNaN(s.P99) {
		m.add(name+"_p99_"+unit, s.P99, unit, s.N)
	}
}

// e2eMetrics derives the end-to-end metrics of an untraced phase.
func e2eMetrics(ph *phaseStats, out *metricSet) {
	out.timing("query", latencies(ph), "ms")
	done := make([]time.Time, len(ph.queries))
	for i, q := range ph.queries {
		done[i] = q.done
	}
	qps := summarize(perWindow(ph.start, ph.end, done))
	out.add("query_qps", qps.P50/window.Seconds(), "1/s", qps.N)
	if ph.writes > 0 {
		// The writer's mix is exactly half cheap inserts and half costly
		// deletes, so a median over both falls between the two modes:
		// medians are reported per operation, the p99 over both.
		writeTimings(out, "write", ph.writeLat)
		writeTimings(out, "fresh", ph.fresh)
		lateness := make([]float64, len(ph.lateness))
		for i, d := range ph.lateness {
			lateness[i] = ms(d)
		}
		s := summarize(lateness)
		out.add("writer_lateness_max_ms", s.Max, "ms", s.N)
		if !math.IsNaN(s.P99) {
			out.add("writer_lateness_p99_ms", s.P99, "ms", s.N)
		}
	}
	mem := summarize(ph.memPeaks)
	out.add("mem_peak_mb", mem.P50/(1<<20), "MB", mem.N)
	out.add("error_ratio", ratio(float64(ph.failed), float64(ph.attempted)), "ratio", ph.attempted)
}

// writeTimings adds name_insert and name_delete timings and the p99
// over both operations.
func writeTimings(out *metricSet, name string, byOp [2][]time.Duration) {
	all := summarizeDur(append(slices.Clone(byOp[opInsert]), byOp[opDelete]...), ms)
	if !math.IsNaN(all.P99) {
		out.add(name+"_p99_ms", all.P99, "ms", all.N)
	}
	out.timing(name+"_insert", byOp[opInsert], "ms")
	out.timing(name+"_delete", byOp[opDelete], "ms")
}

// writerBehind reports whether the open-loop writer ever started a
// write a full interval late — the run then measured a lower write rate
// than it claims.
func writerBehind(ph *phaseStats) bool {
	for _, d := range ph.lateness {
		if d >= writeInterval {
			return true
		}
	}
	return false
}

// layerMetrics derives the per-layer metrics from the traced phase B,
// its spans, and the direct-call samples; phase A (untraced, same
// fixture) is the reference for the tracing overhead.
func layerMetrics(phA, phB *phaseStats, epoch time.Time, spans []span, reformS, compileS []time.Duration, out *metricSet) {
	nq := float64(len(phB.queries))
	lo, hi := int64(phB.start.Sub(epoch)), int64(phB.end.Sub(epoch))
	// win holds the spans of the measured window; setup spans (the
	// mirror fill) stay in spans.
	var win []span
	requests := make(map[uint64]bool)
	for _, s := range spans {
		if s.Start >= lo && s.End <= hi {
			win = append(win, s)
			if s.Parent == 0 && s.Name == "request" {
				requests[s.Req] = true
			}
		}
	}
	perRequest := func(name string) float64 {
		c := 0
		for _, s := range win {
			if s.Name == name && requests[s.Req] {
				c++
			}
		}
		return ratio(float64(c), float64(len(requests)))
	}
	self := selfTimes(spans)

	// transport
	out.add("transport.state_per_query", perRequest("transport.state"), "count", len(requests))
	out.timing("transport.state", durations(spans, "transport.state"), "us")
	out.add("transport.delta_per_query", perRequest("transport.delta"), "count", len(requests))
	out.timing("transport.delta", durations(win, "transport.delta"), "us")
	scans := durations(spans, "transport.scan")
	out.add("transport.scan_ms", p50(scans, ms), "ms", len(scans))
	ops := len(phB.queries) + phB.writes
	out.add("transport.wire_bytes_per_op", ratio(float64(phB.wireBytes), float64(ops)), "B/op", ops)
	out.add("transport.busy_frac", ratio(float64(busy(win, "transport.", lo, hi)), float64(hi-lo)), "ratio", 0)

	// pdms: reformulation
	var reform, prepare, exec []time.Duration
	var rw, answers, retries, batch, fallback float64
	paths := map[string]float64{}
	for _, q := range phB.queries {
		reform = append(reform, q.reform)
		prepare = append(prepare, q.prepare)
		exec = append(exec, q.exec)
		rw += float64(q.rewritings)
		answers += float64(q.answers)
		retries += float64(q.retries)
		batch += float64(q.batch)
		fallback += float64(q.fallback)
		for p, c := range q.paths {
			paths[p] += float64(c)
		}
	}
	out.add("pdms.reform_p50_us", p50(reform, us), "us", len(reform))
	out.add("pdms.reform_mean_us", mean(reform, us), "us", len(reform))
	out.add("pdms.reform_cold_us", p50(reformS, us), "us", len(reformS))
	out.add("pdms.rewritings_per_query", ratio(rw, nq), "count", 0)

	// pdms: sync and apply
	out.add("pdms.prepare_p50_us", p50(prepare, us), "us", len(prepare))
	// A prepare's self time is the call minus its transport spans:
	// reformulation on a cache miss, the remote-lock wait, plan
	// compilation and, on a query that caught up by Delta, the replica
	// apply — reported on its own as delta_apply.
	deltaParent := make(map[uint64]bool)
	for _, s := range win {
		if s.Name == "transport.delta" {
			deltaParent[s.Parent] = true
		}
	}
	var prepSelf, deltaApply []time.Duration
	for _, s := range win {
		if s.Name == "pdms.prepare" {
			prepSelf = append(prepSelf, self[s.ID])
			if deltaParent[s.ID] {
				deltaApply = append(deltaApply, self[s.ID])
			}
		}
	}
	out.add("pdms.prepare_self_us", p50(prepSelf, us), "us", len(prepSelf))
	out.add("pdms.prepare_self_mean_us", mean(prepSelf, us), "us", len(prepSelf))
	out.timing("pdms.delta_apply", deltaApply, "us")
	out.timing("pdms.push_apply", durations(win, "pdms.push_apply"), "us")
	var scanApply []time.Duration
	for _, s := range spans {
		if s.Name != "transport.scan" {
			continue
		}
		var sum time.Duration
		for _, c := range spans {
			if c.Parent == s.ID && c.Name == "pdms.scan_apply" {
				sum += c.dur()
			}
		}
		scanApply = append(scanApply, sum)
	}
	out.add("pdms.scan_apply_ms", p50(scanApply, ms), "ms", len(scanApply))
	out.add("pdms.push_records_per_batch", ratio(float64(phB.pushRecords), float64(phB.pushBatches)), "count", int(phB.pushBatches))
	out.add("pdms.push_gaps", float64(phB.pushGaps), "count", 0)
	for _, p := range []string{"scan", "delta", "push"} {
		out.add("pdms.sync_"+p+"_per_query", ratio(paths[p], nq), "count", 0)
	}
	out.add("pdms.retries_per_query", ratio(retries, nq), "count", 0)

	// cq
	out.add("cq.exec_p50_us", p50(exec, us), "us", len(exec))
	out.add("cq.answers_per_query", ratio(answers, nq), "count", 0)
	out.add("cq.batch_branch_ratio", ratio(batch, batch+fallback), "ratio", 0)
	out.add("cq.compile_us", p50(compileS, us), "us", len(compileS))

	// store: the durable writes, where the workload makes any
	out.timing("store.insert", durations(win, "store.insert"), "us")
	out.timing("store.delete", durations(win, "store.delete"), "us")

	// self time per layer, over the traced phase's spans
	bySelf := layerSelf(win)
	var total time.Duration
	for _, d := range bySelf {
		total += d
	}
	for _, l := range []string{"transport", "pdms", "cq", "store"} {
		out.add(l+".self_ms", ms(bySelf[l]), "ms", 0)
		out.add(l+".self_share", ratio(float64(bySelf[l]), float64(total)), "ratio", 0)
	}

	// tracing overhead: traced query p50 over the untraced one
	pa, pb := p50(latencies(phA), ms), p50(latencies(phB), ms)
	out.add("query_p50_ms.untraced", pa, "ms", len(phA.queries))
	out.add("query_p50_ms.traced", pb, "ms", len(phB.queries))
	out.add("trace.overhead_ratio", ratio(pb, pa), "ratio", 0)
}

// latencies returns the phase's query latencies.
func latencies(ph *phaseStats) []time.Duration {
	out := make([]time.Duration, len(ph.queries))
	for i, q := range ph.queries {
		out[i] = q.latency
	}
	return out
}

// p50 and mean summarize durations in the unit conv converts to; an
// empty input gives 0.
func p50(ds []time.Duration, conv func(time.Duration) float64) float64 {
	return summarizeDur(ds, conv).P50
}

func mean(ds []time.Duration, conv func(time.Duration) float64) float64 {
	return summarizeDur(ds, conv).Mean
}

func summarizeDur(ds []time.Duration, conv func(time.Duration) float64) summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = conv(d)
	}
	return summarize(xs)
}
