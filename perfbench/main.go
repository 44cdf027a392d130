// Command perfbench is petasim's end-to-end benchmark. It drives the
// simulator's own packages in-process through one of three workloads,
// checks every output it produces, and prints each metric by name and
// unit, ending with a one-line JSON result:
//
//	go build -o perfbench . && ./perfbench -root .. -workload figures-cold -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the run reports the end-to-end metrics from untraced
// passes; with -trace 1 it reports the per-layer metrics from one
// untraced and one traced phase. README.md maps each layer metric to
// the end-to-end metric and workload it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, whatever the
// workload: each workload defines a pass, and these describe its pass.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer the
// workload does not use reads 0.
var perLayer = []metricDef{
	{"apps.gtc.host_s", "s"},
	{"apps.elbm3d.host_s", "s"},
	{"apps.cactus.host_s", "s"},
	{"apps.beambeam3d.host_s", "s"},
	{"apps.paratec.host_s", "s"},
	{"apps.hyperclaw.host_s", "s"},
	{"simmpi.worlds", "count"},
	{"simmpi.messages", "count"},
	{"simmpi.bytes_sent", "B"},
	{"simmpi.virtual_s", "s"},
	{"simmpi.world_host_s", "s"},
	{"simmpi.host_ns_per_msg", "ns"},
	{"runner.points", "count"},
	{"runner.simulated", "count"},
	{"runner.mem_hits", "count"},
	{"runner.disk_hits", "count"},
	{"runner.deduped", "count"},
	{"runner.slot_wait_s", "s"},
	{"store.mem.gets", "count"},
	{"store.mem.hits", "count"},
	{"store.disk.gets", "count"},
	{"store.disk.hits", "count"},
	{"store.disk.puts", "count"},
	{"store.tiered.backfills", "count"},
	{"store.mem.get_us_p50", "us"},
	{"store.disk.get_us_p50", "us"},
	{"store.disk.put_us_p50", "us"},
	{"experiments.plan_us_p50", "us"},
	{"experiments.render_ms", "ms"},
	{"whatif.plan_us_p50", "us"},
	{"server.sweep.handler_us_p50", "us"},
	{"server.whatif.handler_us_p50", "us"},
	{"server.figure.handler_us_p50", "us"},
	{"server.jobs.handler_us_p50", "us"},
	{"server.metrics.handler_us_p50", "us"},
	{"server.non2xx", "count"},
	{"jobs.submitted", "count"},
	{"jobs.done", "count"},
	{"jobs.failed", "count"},
	{"jobs.retries", "count"},
	{"jobs.rate_limited", "count"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.exec_ms_p50", "ms"},
	{"jobs.result_ms_p50", "ms"},
	{"obs.scrape_ms_p50", "ms"},
	{"obs.trace_overhead_frac", "ratio"},
	{"go.max_rss_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"failed_frac", "ratio"},
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median, and the last instance runs the passes.
const setupReps = 5

// env is what every workload instance shares: where the repository's
// files are, where scratch state goes, and how wide to run.
type env struct {
	root  string // checkout root, holding internal/...
	work  string // scratch directory for stores and WALs, removed at exit
	nproc int    // pool workers and client goroutines
	seed  int64
	log   io.Writer // failure details
}

// instance is one set-up copy of a workload, ready to run passes.
type instance interface {
	// pass runs the workload once, returning how many operations it
	// attempted and how many failed (an error, a non-2xx status, a byte
	// mismatch, or a warm request that simulated).
	pass(ctx context.Context) (attempted, failed int)
	// close releases everything the instance started or created.
	close()
}

// workload builds instances. A non-nil spanLog builds the traced
// variant: driver-side wrappers around layer boundaries record into it.
type workload struct {
	name  string
	setup func(ctx context.Context, e *env, sp *spanLog) (instance, error)
	// layers reduces one untraced and one traced phase of the same
	// workload into per-layer metrics. It may run further checked work
	// (replays) and reports that work's operations too.
	layers func(ctx context.Context, e *env, u, t *phase) (m map[string]float64, attempted, failed int, err error)
}

var workloads = []workload{figuresCold, sweepWide, serveWarm}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// result is the last line of every run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: figures-cold, sweep-wide or serve-warm")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	root := flag.String("root", ".", "repository root (holds internal/experiments/testdata)")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	// Scratch state stays inside the checkout, under the build dir.
	work := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	scratch, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fatal(err)
	}
	e := &env{root: *root, work: scratch, nproc: runtime.NumCPU(), seed: *seed, log: os.Stderr}

	fmt.Printf("host %s\n", fingerprint(*root))
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = runTraced(context.Background(), w, e, budget, os.Stdout)
	} else {
		res, err = runUntraced(context.Background(), w, e, budget, os.Stdout)
	}
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// phase is a run of passes over one instance, with what they measured.
type phase struct {
	inst      instance
	sp        *spanLog
	walls     []float64 // seconds per pass
	allocs    []float64 // MB allocated per pass
	gcCycles  float64   // during the passes
	gcCPU     float64   // seconds, during the passes
	attempted int
	failed    int
	spans     traceSpans // the program's own spans, traced phases only
	spanErr   error
}

// runPasses runs passes until budget has elapsed, at least one. Each
// pass starts from a collected heap so that passes are alike. A traced
// phase (sp non-nil) also runs each pass under an obs trace, so the
// spans the program emits itself are collected.
func runPasses(ctx context.Context, inst instance, sp *spanLog, budget time.Duration) *phase {
	ph := &phase{inst: inst, sp: sp}
	start := time.Now()
	for len(ph.walls) == 0 || time.Since(start) < budget {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0, cpu0 := gcCounters()
		pctx := ctx
		var tr *obs.Trace
		if sp != nil {
			tr = obs.NewTrace(obs.NewID(), "perfbench")
			pctx = obs.ContextWithTrace(ctx, tr)
		}
		t0 := time.Now()
		a, f := inst.pass(pctx)
		wall := time.Since(t0).Seconds()
		gc1, cpu1 := gcCounters()
		ph.gcCycles += gc1 - gc0
		ph.gcCPU += cpu1 - cpu0
		runtime.ReadMemStats(&m1)
		if tr != nil {
			tr.Finish()
			ts, err := collectSpans(tr)
			if err != nil && ph.spanErr == nil {
				ph.spanErr = err
			}
			ph.spans.add(ts)
		}
		ph.walls = append(ph.walls, wall)
		ph.allocs = append(ph.allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		ph.attempted += a
		ph.failed += f
	}
	return ph
}

// runUntraced measures the end-to-end metrics: setupReps timed
// set-ups, then passes over the last instance until budget elapses.
func runUntraced(ctx context.Context, w workload, e *env, budget time.Duration, out io.Writer) (result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, e, nil); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph := runPasses(ctx, inst, nil, budget)
	fmt.Fprintf(e.log, "set-ups (s): %.4g\npasses (s): %.4g\n", setups, ph.walls)
	extra, checkErr := untracedReport(inst, ph)
	inst.close()

	vals := map[string]float64{
		"setup_s":  median(setups),
		"wall_s":   median(ph.walls),
		"alloc_mb": median(ph.allocs),
	}
	counts := map[string]int{"setup_s": len(setups), "wall_s": len(ph.walls), "alloc_mb": len(ph.allocs)}
	res := result{Correct: ph.failed == 0 && checkErr == nil, Attempted: ph.attempted, Failed: ph.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		fmt.Fprintf(out, "metric %-10s %12.6g %-3s median of %d\n", m.name, vals[m.name], m.unit, counts[m.name])
	}
	for _, line := range extra {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "metric %-10s %12.6g ratio %d failed of %d attempted\n", "failed_frac",
		frac(ph.failed, ph.attempted), ph.failed, ph.attempted)
	if checkErr != nil {
		fmt.Fprintf(out, "self-check failed: %v\n", checkErr)
	}
	return res, nil
}

// reporter is implemented by instances whose untraced runs have more
// to say than the pass metrics: the serve workload's request and job
// latencies, and its self-checks.
type reporter interface {
	report(ph *phase) (lines []string, err error)
}

func untracedReport(inst instance, ph *phase) ([]string, error) {
	if r, ok := inst.(reporter); ok {
		return r.report(ph)
	}
	return nil, nil
}

// runTraced measures the per-layer metrics: an untraced phase for
// counts and latencies, then a traced phase, on separate instances so
// that no wrapper sits in the untraced one. Each phase gets half the
// budget (at least one pass).
func runTraced(ctx context.Context, w workload, e *env, budget time.Duration, out io.Writer) (result, error) {
	ui, err := w.setup(ctx, e, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	u := runPasses(ctx, ui, nil, budget/2)
	_, checkErr := untracedReport(ui, u)
	ui.close() // instances keep what layers reads past close

	sp := newSpanLog()
	ti, err := w.setup(ctx, e, sp)
	if err != nil {
		return result{}, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	t := runPasses(ctx, ti, sp, budget/2)
	defer ti.close()

	m, a, f, err := w.layers(ctx, e, u, t)
	if err != nil {
		return result{}, err
	}
	m["obs.trace_overhead_frac"] = median(t.walls)/median(u.walls) - 1
	m["go.max_rss_mb"] = maxRSSMB()
	m["go.gc_cycles"] = u.gcCycles / float64(len(u.walls))
	m["go.gc_cpu_s"] = u.gcCPU / float64(len(u.walls))
	attempted := u.attempted + t.attempted + a
	failed := u.failed + t.failed + f
	if _, ok := m["failed_frac"]; !ok {
		m["failed_frac"] = frac(failed, attempted)
	}

	res := result{Correct: failed == 0 && checkErr == nil, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	names := make([]string, 0, len(perLayer))
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
		names = append(names, d.name)
	}
	for k := range m {
		if _, ok := res.Metrics[k]; !ok {
			return result{}, fmt.Errorf("workload %s reported undeclared metric %q", w.name, k)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(out, "layer %-32s %14.6g %s\n", n, v.Value, v.Unit)
	}
	if checkErr != nil {
		fmt.Fprintf(out, "self-check failed: %v\n", checkErr)
	}
	return res, nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
