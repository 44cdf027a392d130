package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/apps/hyperclaw"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/runner"
)

// The two cold workloads simulate every point of a pass from scratch:
// figures-cold regenerates the paper's Figures 2-7, sweep-wide runs a
// large-concurrency sweep. They share their set-up (priming the
// simulation core) and their per-layer reduction (a traced pass plus a
// serial replay of every point).

// primeProcs is the concurrency of the set-up's priming worlds: small
// enough to cost well under a second per application, large enough to
// exercise every communication path.
const primeProcs = 16

// prime runs one small world per application through the simulation
// core, so every timed pass starts from a process whose pooled hosts,
// buffers and heap are already in use. The HyperCLaw trajectory it
// records is dropped again; passes start cold.
func prime(ctx context.Context, appNames []string) error {
	for _, name := range appNames {
		w, err := apps.Lookup(name)
		if err != nil {
			return err
		}
		if _, err := apps.RunPoint(ctx, w, machine.Bassi, primeProcs); err != nil {
			return fmt.Errorf("priming %s: %w", name, err)
		}
	}
	hyperclaw.ResetTrajectoryCache()
	return nil
}

// coldCheck reports why a pass that should have simulated every point
// did not: a point served from a store, or a simulation count that is
// not the pass's point count.
func coldCheck(st runner.Stats, results []runner.Result) error {
	for _, r := range results {
		if r.Cached {
			return fmt.Errorf("%s %s P=%d was served from a store", r.App, r.Machine, r.Procs)
		}
	}
	if st.Simulated != int64(len(results)) {
		return fmt.Errorf("%d points simulated, want all %d", st.Simulated, len(results))
	}
	return nil
}

// coldPass is what a cold pass leaves for the per-layer reduction.
type coldPass struct {
	results []runner.Result // every point, in job order
	runner  runner.Stats
	store   storeCounts
}

// coldLayers is the shared per-layer reduction of the cold workloads:
// counts from the last untraced pass, span timings from the traced
// phase, and per-application host time plus simulated counts from a
// serial replay of the untraced pass's points.
func coldLayers(ctx context.Context, e *env, u, t *phase, last func(instance) coldPass) (map[string]float64, int, int, error) {
	if t.spanErr != nil {
		return nil, 0, 0, t.spanErr
	}
	m := map[string]float64{}
	up := last(u.inst)
	runnerInto(m, up.runner, 1)
	up.store.into(m)
	t.spans.into(m, len(t.walls))
	m["store.mem.get_us_p50"] = t.sp.p50("store.mem.get", 1e6)
	m["store.disk.get_us_p50"] = t.sp.p50("store.disk.get", 1e6)
	m["store.disk.put_us_p50"] = t.sp.p50("store.disk.put", 1e6)
	m["experiments.render_ms"] = t.sp.p50("experiments.render", 1e3)
	m["experiments.plan_us_p50"] = t.sp.p50("experiments.plan", 1e6)
	a, f := replay(ctx, up.results, m, func(format string, args ...any) {
		fmt.Fprintf(e.log, format+"\n", args...)
	})
	if msgs := m["simmpi.messages"]; msgs > 0 {
		m["simmpi.host_ns_per_msg"] = m["simmpi.world_host_s"] * 1e9 / msgs
	}
	return m, a, f, nil
}

// figuresOptions are the golden files' options: the -quick caps plus a
// 128-processor ceiling, 74 points.
var figuresOptions = experiments.Options{Quick: true, MaxProcs: 128}

var figuresCold = newFiguresCold(figuresOptions, nil)

// newFiguresCold builds the figures workload at opts, comparing against
// golden, or against the repository's golden files when golden is nil.
func newFiguresCold(opts experiments.Options, golden [][]byte) workload {
	return workload{
		name: "figures-cold",
		setup: func(ctx context.Context, e *env, sp *spanLog) (instance, error) {
			want := golden
			if want == nil {
				var err error
				if want, err = readGoldens(filepath.Join(e.root, "internal", "experiments", "testdata")); err != nil {
					return nil, err
				}
			}
			if err := prime(ctx, apps.Names()); err != nil {
				return nil, err
			}
			return &figuresInst{env: e, sp: sp, opts: opts, golden: want}, nil
		},
		layers: func(ctx context.Context, e *env, u, t *phase) (map[string]float64, int, int, error) {
			return coldLayers(ctx, e, u, t, func(i instance) coldPass { return i.(*figuresInst).last })
		},
	}
}

// readGoldens loads figure2.golden .. figure7.golden.
func readGoldens(dir string) ([][]byte, error) {
	var out [][]byte
	for n := 2; n <= 7; n++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("figure%d.golden", n)))
		if err != nil {
			return nil, fmt.Errorf("reading golden: %w", err)
		}
		out = append(out, b)
	}
	return out, nil
}

// figuresInst regenerates Figures 2-7 with experiments.AllFigures, each
// pass over a fresh pool and an empty memory-over-disk store, and
// compares each rendered figure with its golden file.
type figuresInst struct {
	env    *env
	sp     *spanLog
	opts   experiments.Options
	golden [][]byte
	dirs   []string
	last   coldPass
}

func (f *figuresInst) pass(ctx context.Context) (attempted, failed int) {
	attempted = len(f.golden)
	hyperclaw.ResetTrajectoryCache()
	dir, err := os.MkdirTemp(f.env.work, "figures-")
	if err != nil {
		fmt.Fprintf(f.env.log, "figures-cold: %v\n", err)
		return attempted, attempted
	}
	f.dirs = append(f.dirs, dir)
	store, err := newTieredStore(dir, runner.DefaultMemCapacity, f.sp)
	if err != nil {
		fmt.Fprintf(f.env.log, "figures-cold: %v\n", err)
		return attempted, attempted
	}
	pool := &runner.Pool{Workers: f.env.nproc, Store: store}
	opts := f.opts
	opts.Runner = pool
	figs, err := experiments.AllFigures(ctx, opts)
	if err != nil {
		fmt.Fprintf(f.env.log, "figures-cold: %v\n", err)
		return attempted, attempted
	}
	if len(figs) != len(f.golden) {
		fmt.Fprintf(f.env.log, "figures-cold: %d figures, want %d\n", len(figs), len(f.golden))
		return attempted, attempted
	}
	var results []runner.Result
	for i, fig := range figs {
		end := f.sp.start("experiments.render")
		var buf bytes.Buffer
		err := fig.Render(&buf)
		if err == nil {
			err = fig.RenderChart(&buf, "gflops")
		}
		end()
		if err != nil || !bytes.Equal(buf.Bytes(), f.golden[i]) {
			failed++
			fmt.Fprintf(f.env.log, "figures-cold: %s differs from figure%d.golden (err %v)\n", fig.ID, i+2, err)
		}
		results = append(results, fig.Results...)
	}
	f.last = coldPass{results: results, runner: pool.Stats(), store: store.counts()}
	if err := coldCheck(f.last.runner, results); err != nil {
		fmt.Fprintf(f.env.log, "figures-cold: pass was not cold: %v\n", err)
		return attempted, attempted
	}
	return attempted, failed
}

func (f *figuresInst) close() {
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
	f.dirs = nil
}

// The sweep-wide selection: four of the six applications (HyperCLaw is
// left out: a 1024-rank BG/L HyperCLaw world outgrows an 8 GB host) on
// BG/L and Jaguar at 512 and 1024 ranks, 16 points at default configs.
var (
	sweepApps     = []string{"gtc", "cactus", "beambeam3d", "elbm3d"}
	sweepMachines = []string{"bgl", "jaguar"}
	sweepProcs    = []int{512, 1024}
)

// sweepDigest is the SHA-256 of the selection's JSON body (the
// /v1/sweep shape), recorded when the benchmark was defined. A body
// that hashes otherwise breaks the byte-identity contract of DESIGN §6a.
const sweepDigest = "3099f1450048306d7cd57c98a7958a7e46d9113ce0f696adfc43a8518383157f"

var sweepWide = newSweepWide(sweepApps, sweepMachines, sweepProcs, sweepDigest)

// newSweepWide builds the sweep workload over a selection whose body
// must hash to digest.
func newSweepWide(appNames, machineNames []string, procs []int, digest string) workload {
	return workload{
		name: "sweep-wide",
		setup: func(ctx context.Context, e *env, sp *spanLog) (instance, error) {
			if err := prime(ctx, appNames); err != nil {
				return nil, err
			}
			return &sweepInst{env: e, sp: sp, apps: appNames, machines: machineNames, procs: procs, digest: digest}, nil
		},
		layers: func(ctx context.Context, e *env, u, t *phase) (map[string]float64, int, int, error) {
			return coldLayers(ctx, e, u, t, func(i instance) coldPass { return i.(*sweepInst).last })
		},
	}
}

// sweepInst runs a cold PlanSweep + Execute through a fresh pool with
// no store and compares the JSON body's digest with the recorded one.
type sweepInst struct {
	env      *env
	sp       *spanLog
	apps     []string
	machines []string
	procs    []int
	digest   string
	last     coldPass
}

func (s *sweepInst) pass(ctx context.Context) (attempted, failed int) {
	pool := &runner.Pool{Workers: s.env.nproc}
	body, results, err := sweepBody(ctx, pool, s.apps, s.machines, s.procs, s.sp)
	if err != nil {
		fmt.Fprintf(s.env.log, "sweep-wide: %v\n", err)
		return 1, 1
	}
	s.last = coldPass{results: results, runner: pool.Stats()}
	if err := coldCheck(s.last.runner, results); err != nil {
		fmt.Fprintf(s.env.log, "sweep-wide: pass was not cold: %v\n", err)
		return 1, 1
	}
	if got := digestOf(body); got != s.digest {
		fmt.Fprintf(s.env.log, "sweep-wide: body digest %s, want %s\n", got, s.digest)
		return 1, 1
	}
	return 1, 0
}

func (s *sweepInst) close() {}

// sweepBody plans and executes a sweep and renders it as the /v1/sweep
// endpoint does.
func sweepBody(ctx context.Context, pool *runner.Pool, appNames, machineNames []string, procs []int, sp *spanLog) ([]byte, []runner.Result, error) {
	end := sp.start("experiments.plan")
	plan, err := experiments.PlanSweep(experiments.Options{Runner: pool}, appNames, machineNames, procs)
	end()
	if err != nil {
		return nil, nil, err
	}
	figs, err := plan.Execute(ctx)
	if err != nil {
		return nil, nil, err
	}
	var results []runner.Result
	for _, fig := range figs {
		results = append(results, fig.Results...)
	}
	end = sp.start("experiments.render")
	var buf bytes.Buffer
	err = runner.WriteJSON(&buf, results)
	end()
	return buf.Bytes(), results, err
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
