// Command pdmsbench is the repository's end-to-end benchmark. It serves
// PDMS peers from an in-process transport.Server on 127.0.0.1 TCP,
// drives one named workload against a pdms.Network coordinator reached
// through transport.Client, checks every answer, and prints every
// metric by name with its unit. The last line of standard output is
// the JSON result: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. README.md describes the workloads
// and metrics.
//
// Run it from the repository root:
//
//	bash pdmsbench/run.sh --workload lookup_zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runLimit stops a run that would exceed the benchmark's 180-second
// budget, so a hang fails the run instead of outliving it.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

func (c config) measure() time.Duration { return time.Duration(c.seconds) * time.Second }

// subdir is a fresh directory for one fixture's durable store.
func (c config) subdir(name string) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s-%d-%s", c.workload, os.Getpid(), name))
}

// tracePath is where a traced run writes its spans; each traced run of
// a workload replaces the previous one's file.
func (c config) tracePath() string {
	return filepath.Join(c.dir, "trace-"+c.workload+".jsonl")
}

// workloads maps each workload name to its fixture constructor and the
// store flush policy it runs under.
var workloads = map[string]struct {
	build func(cfg config, dir string) (fixture, error)
	flush string
}{
	"lookup_zipf": {func(cfg config, _ string) (fixture, error) { return newLookupFixture(cfg.seed) },
		"none (no durable store)"},
	"watch_push": {func(cfg config, dir string) (fixture, error) { return newJoinFixture(dir, cfg.seed, true) },
		"store default: write(2) per append, no fsync"},
	"poll_delta": {func(cfg config, dir string) (fixture, error) { return newJoinFixture(dir, cfg.seed, false) },
		"store default: write(2) per append, no fsync"},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: lookup_zipf, watch_push or poll_delta")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for durable stores and the trace file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "pdmsbench: --trace must be 0 or 1")
		os.Exit(1)
	}
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pdmsbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "pdmsbench: run exceeded %v\n", runLimit)
		os.Exit(2)
	})
	env := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "flush": w.flush}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	build := func(dir string) (fixture, error) { return w.build(cfg, dir) }
	ctx := context.Background()
	var out *outcome
	var err error
	names := e2eNames
	if cfg.trace {
		out, err = runTraced(ctx, cfg, build)
		names = layerNames
	} else {
		out, err = runUntraced(ctx, cfg, build)
	}
	if err != nil {
		return err
	}
	out.metrics.print(os.Stdout)
	if cfg.trace {
		fmt.Printf("trace %s\n", cfg.tracePath())
	}
	if out.behind {
		fmt.Fprintln(os.Stderr, "pdmsbench: warning: the open-loop writer fell a full interval behind schedule")
		fmt.Println("writer_behind true")
	}
	for i, e := range out.failures {
		if i == maxFailureLines {
			fmt.Fprintf(os.Stderr, "pdmsbench: ... %d more failures\n", len(out.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "pdmsbench: failure:", e)
	}
	res, err := result(out, names)
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// result renders the final JSON line with exactly the named metrics.
func result(out *outcome, names []string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(names))
	for _, n := range names {
		m, ok := out.metrics.get(n)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		ms[n] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms})
}
