// Command perfbench is the repository's benchmark. It runs one seeded
// workload against in-process sjserved / sjrouter fleets or the
// unijoin library, checks every answer, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) by name and unit;
// the last line of its output is one JSON object. See BENCHMARK.json
// at the repository root for the workloads and metrics, and
// perfbench/README.md for how to run it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: stream-direct, routed-ndjson, ingest-mixed or paper-sim")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured duration of the run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spansDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spansDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its result. It returns an
// error, after printing, when any answer was wrong or the run was
// invalid.
func run(workload string, seed int64, d time.Duration, traced bool, spansDir string) error {
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx := context.Background()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var o *outcomeOf
	var err error
	if spec, ok := servedWorkloads[workload]; ok {
		o, err = runServed(ctx, spec, seed, d, tr)
	} else if workload == "paper-sim" {
		o, err = runPaperSim(ctx, paperScale, seed, d, tr)
	} else {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	return finish(o, workload, seed, tr, spansDir)
}

// finish validates the run, prints its metrics and saves the spans.
func finish(o *outcomeOf, workload string, seed int64, tr *tracer, spansDir string) error {
	r := o.r
	attempted := r.attempted.Load() + int64(len(o.passes)*len(suiteJoins))
	failed := r.failed.Load()
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	var problems []string
	if w := r.wrong.Load(); w > 0 {
		problems = append(problems, fmt.Sprintf("%d wrong answers", w))
	}
	if late := percentile(r.late.values(), 99); late > maxLateMs {
		problems = append(problems, fmt.Sprintf("invalid run: the open-loop writer ran %.1f ms late at p99 (bound %d ms)", late, maxLateMs))
	}
	for k := range numKinds {
		if n := r.lat[k].len(); beyond(n, float64(tailPct[k])) < minBeyondTail {
			fmt.Fprintf(os.Stderr, "warning: %d %s samples leave fewer than %d beyond p%d\n", n, kindNames[k], minBeyondTail, tailPct[k])
		}
	}
	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed}
	if tr != nil {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
		self, err := tr.write(path)
		if err != nil {
			return err
		}
		o.self = self
		fmt.Fprintln(os.Stderr, "spans written to", path)
		res.Metrics = perLayer(o)
	} else {
		res.Metrics = endToEnd(o, attempted, failed)
	}
	for k := range numKinds {
		fmt.Fprintf(os.Stderr, "samples: %s %d\n", kindNames[k], r.lat[k].len())
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("%v", problems)
	}
	return nil
}
