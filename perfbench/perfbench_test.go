package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps/hyperclaw"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// Tiny variants of the three workloads: the same code paths at a size
// that finishes in seconds.
var (
	tinyFigureOpts = experiments.Options{Quick: true, MaxProcs: 64}
	tinySweep      = struct {
		apps, machines []string
		procs          []int
	}{[]string{"gtc"}, []string{"bassi"}, []int{16}}
	tinyServe = serveConfig{
		opts:         experiments.Options{Quick: true, MaxProcs: 16},
		apps:         []string{"gtc"},
		procs:        []int{16},
		figures:      []int{4},
		opsPerClient: 200,
		jobEvery:     50,
	}
)

func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{root: "..", work: t.TempDir(), nproc: 2, seed: 7, log: testLog{t}}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

var tinyGolden struct {
	once sync.Once
	figs [][]byte
	err  error
}

// tinyGoldens renders the tiny figure set through a serial pool, once:
// the reference the tiny figures workload must reproduce.
func tinyGoldens(t *testing.T) [][]byte {
	t.Helper()
	tinyGolden.once.Do(func() {
		hyperclaw.ResetTrajectoryCache()
		opts := tinyFigureOpts
		opts.Runner = &runner.Pool{Workers: 1}
		figs, err := experiments.AllFigures(context.Background(), opts)
		if err != nil {
			tinyGolden.err = err
			return
		}
		for _, fig := range figs {
			var buf bytes.Buffer
			err := fig.Render(&buf)
			if err == nil {
				err = fig.RenderChart(&buf, "gflops")
			}
			if err != nil {
				tinyGolden.err = err
				return
			}
			tinyGolden.figs = append(tinyGolden.figs, buf.Bytes())
		}
	})
	if tinyGolden.err != nil {
		t.Fatal(tinyGolden.err)
	}
	return tinyGolden.figs
}

func tinySweepDigest(t *testing.T) string {
	t.Helper()
	body, _, err := sweepBody(context.Background(), &runner.Pool{Workers: 1},
		tinySweep.apps, tinySweep.machines, tinySweep.procs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return digestOf(body)
}

// onePass sets w up, runs a single untraced pass and tears it down.
func onePass(t *testing.T, w workload) (attempted, failed int) {
	t.Helper()
	ctx := context.Background()
	inst, err := w.setup(ctx, testEnv(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	return inst.pass(ctx)
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		wantOK bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: percentile must sort
		}
		p, v, ok := tailPercentile(xs)
		if ok != tc.wantOK || p != tc.p {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", tc.n, p, ok, tc.p, tc.wantOK)
			continue
		}
		if ok && v != percentile(xs, p) {
			t.Errorf("n=%d: value %g is not the p%g %g", tc.n, v, p, percentile(xs, p))
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

func TestFiguresComparedWithGoldens(t *testing.T) {
	golden := tinyGoldens(t)
	ctx := context.Background()
	inst, err := newFiguresCold(tinyFigureOpts, golden).setup(ctx, testEnv(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if a, f := inst.pass(ctx); a != len(golden) || f != 0 {
		t.Fatalf("matching goldens: %d of %d failed", f, a)
	}
	tampered := append([][]byte(nil), golden...)
	last := len(tampered) - 1
	tampered[last] = append([]byte(nil), golden[last]...)
	tampered[last][0] ^= 1
	inst.(*figuresInst).golden = tampered
	if a, f := inst.pass(ctx); a != len(golden) || f != 1 {
		t.Fatalf("one tampered golden: %d of %d failed, want 1", f, a)
	}
}

func TestSweepComparedWithDigest(t *testing.T) {
	digest := tinySweepDigest(t)
	if _, f := onePass(t, newSweepWide(tinySweep.apps, tinySweep.machines, tinySweep.procs, digest)); f != 0 {
		t.Fatal("matching digest counted as failed")
	}
	tampered := strings.Repeat("0", len(digest))
	if a, f := onePass(t, newSweepWide(tinySweep.apps, tinySweep.machines, tinySweep.procs, tampered)); a != 1 || f != 1 {
		t.Fatalf("tampered digest: %d of %d failed, want 1 of 1", f, a)
	}
}

func TestServeCountsInjected500(t *testing.T) {
	if a, f := onePass(t, newServeWarm(tinyServe)); a == 0 || f != 0 {
		t.Fatalf("clean server: %d of %d failed", f, a)
	}
	var injected atomic.Int64
	cfg := tinyServe
	cfg.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/sweep") && injected.Add(1) == 1 {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	if a, f := onePass(t, newServeWarm(cfg)); f != 1 {
		t.Fatalf("one injected 500: %d of %d failed, want 1", f, a)
	}
}

// TestColdCheck pins what makes a cold pass fail its coldness check: a
// point served from a store, or fewer simulations than points.
func TestColdCheck(t *testing.T) {
	results := []runner.Result{{App: "GTC"}, {App: "Cactus"}}
	if err := coldCheck(runner.Stats{Simulated: 2}, results); err != nil {
		t.Fatalf("cold pass: %v", err)
	}
	if coldCheck(runner.Stats{Simulated: 1}, results) == nil {
		t.Error("1 of 2 points simulated passed the check")
	}
	results[1].Cached = true
	if coldCheck(runner.Stats{Simulated: 2}, results) == nil {
		t.Error("a store-served point passed the check")
	}
}

// TestTimedTiersKeepProvenance pins what lets the traced run time the
// tiers: a wrapped memory tier still reports memory hits.
func TestTimedTiersKeepProvenance(t *testing.T) {
	sp := newSpanLog()
	store, err := newTieredStore(t.TempDir(), 8, sp)
	if err != nil {
		t.Fatal(err)
	}
	pool := &runner.Pool{Workers: 1, Store: store}
	job := runner.Job{Key: runner.Key("perfbench", 1), Run: func(context.Context) (runner.Result, error) {
		return runner.Result{Experiment: "perfbench"}, nil
	}}
	for i := 0; i < 2; i++ {
		if _, err := pool.Run(context.Background(), []runner.Job{job}); err != nil {
			t.Fatal(err)
		}
	}
	if st := pool.Stats(); st.Simulated != 1 || st.MemHits != 1 || st.Hits != 0 {
		t.Fatalf("wrapped tiers: %s, want 1 simulated and 1 mem hit", st)
	}
	if len(sp.samples("store.mem.get")) == 0 || len(sp.samples("store.disk.put")) != 1 {
		t.Fatal("wrapped tiers were not timed")
	}
}

// TestSmoke runs each workload at tiny size through both run modes and
// checks that every declared metric is reported.
func TestSmoke(t *testing.T) {
	for _, w := range []workload{
		newFiguresCold(tinyFigureOpts, tinyGoldens(t)),
		newSweepWide(tinySweep.apps, tinySweep.machines, tinySweep.procs, tinySweepDigest(t)),
		newServeWarm(tinyServe),
	} {
		t.Run(w.name, func(t *testing.T) {
			ctx := context.Background()
			for _, traced := range []bool{false, true} {
				run, want := runUntraced, endToEnd
				if traced {
					run, want = runTraced, perLayer
				}
				res, err := run(ctx, w, testEnv(t), 0, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, d := range want {
					if _, ok := res.Metrics[d.name]; !ok {
						t.Errorf("traced=%v: missing %s", traced, d.name)
					}
				}
				if !traced && res.Metrics["wall_s"].Value <= 0 {
					t.Errorf("wall_s = %g", res.Metrics["wall_s"].Value)
				}
				if traced {
					plans := []string{"experiments.plan_us_p50"}
					if w.name == "serve-warm" {
						plans = append(plans, "whatif.plan_us_p50")
					} else if w.name == "figures-cold" {
						plans = nil // AllFigures plans inside the program
					}
					for _, name := range plans {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %g; the pass's plan expansion was not timed", name, res.Metrics[name].Value)
						}
					}
				}
				if traced && w.name != "serve-warm" {
					sim, pts := res.Metrics["runner.simulated"].Value, res.Metrics["runner.points"].Value
					if sim == 0 || sim != pts {
						t.Errorf("cold pass simulated %g of %g points", sim, pts)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the driver in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the driver %d", kind, len(got), len(want))
		}
		for i := range got {
			if i < len(want) && (got[i].Name != want[i].name || got[i].Unit != want[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), driver %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
