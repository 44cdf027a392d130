package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/hyperclaw"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/runner"
)

// The traced run times each result-store tier from outside. The runner
// learns a hit's provenance through unexported interfaces that the
// tier adapters implement, so a wrapper that merely held a tier would
// turn every memory hit into a disk hit. Embedding the adapter promotes
// those methods too: timedMem still reports its hits as memory hits.
// The counts are taken from untraced runs all the same, and a test pins
// the provenance.

// timedMem times the memory tier's lookups and writes.
type timedMem struct {
	*runner.MemStore
	sp *spanLog
}

func (s timedMem) Get(key string) (runner.Result, bool) {
	t0 := time.Now()
	r, ok := s.MemStore.Get(key)
	s.sp.add("store.mem.get", time.Since(t0))
	return r, ok
}

// timedDisk times the disk tier's lookups and writes.
type timedDisk struct {
	*runner.DiskStore
	sp *spanLog
}

func (s timedDisk) Get(key string) (runner.Result, bool) {
	t0 := time.Now()
	r, ok := s.DiskStore.Get(key)
	s.sp.add("store.disk.get", time.Since(t0))
	return r, ok
}

func (s timedDisk) Put(key string, r runner.Result) error {
	t0 := time.Now()
	err := s.DiskStore.Put(key, r)
	s.sp.add("store.disk.put", time.Since(t0))
	return err
}

// tieredStore is the memory-over-disk stack petasim -cache builds, with
// the tiers kept at hand for their counters. With a spanLog the tiers
// are timed.
type tieredStore struct {
	*runner.Tiered
	mem  *runner.MemStore
	disk *runner.DiskStore
}

func newTieredStore(dir string, memCap int, sp *spanLog) (*tieredStore, error) {
	cache, err := runner.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	ts := &tieredStore{mem: runner.NewMemStore(runner.NewMemCache(memCap)), disk: runner.NewDiskStore(cache)}
	if sp == nil {
		ts.Tiered = runner.NewTiered(ts.mem, ts.disk)
	} else {
		ts.Tiered = runner.NewTiered(timedMem{ts.mem, sp}, timedDisk{ts.disk, sp})
	}
	return ts, nil
}

// storeCounts is a snapshot of the store counters the layer metrics
// report.
type storeCounts struct {
	memGets, memHits, diskGets, diskHits, diskPuts, backfills float64
}

func (ts *tieredStore) counts() storeCounts {
	m, d := ts.mem.Stats(), ts.disk.Stats()
	return storeCounts{
		memGets: float64(m.Gets), memHits: float64(m.Hits),
		diskGets: float64(d.Gets), diskHits: float64(d.Hits), diskPuts: float64(d.Puts),
		backfills: float64(ts.Tiered.Stats().Backfills),
	}
}

func (c storeCounts) sub(o storeCounts) storeCounts {
	return storeCounts{c.memGets - o.memGets, c.memHits - o.memHits, c.diskGets - o.diskGets,
		c.diskHits - o.diskHits, c.diskPuts - o.diskPuts, c.backfills - o.backfills}
}

func (c storeCounts) scale(k float64) storeCounts {
	return storeCounts{c.memGets * k, c.memHits * k, c.diskGets * k, c.diskHits * k, c.diskPuts * k, c.backfills * k}
}

func (c storeCounts) into(m map[string]float64) {
	m["store.mem.gets"] = c.memGets
	m["store.mem.hits"] = c.memHits
	m["store.disk.gets"] = c.diskGets
	m["store.disk.hits"] = c.diskHits
	m["store.disk.puts"] = c.diskPuts
	m["store.tiered.backfills"] = c.backfills
}

func runnerInto(m map[string]float64, st runner.Stats, k float64) {
	m["runner.points"] = float64(st.Points) * k
	m["runner.simulated"] = float64(st.Simulated) * k
	m["runner.mem_hits"] = float64(st.MemHits) * k
	m["runner.disk_hits"] = float64(st.Hits) * k
	m["runner.deduped"] = float64(st.Deduped) * k
}

func subStats(a, b runner.Stats) runner.Stats {
	return runner.Stats{Points: a.Points - b.Points, Simulated: a.Simulated - b.Simulated,
		MemHits: a.MemHits - b.MemHits, Hits: a.Hits - b.Hits, Deduped: a.Deduped - b.Deduped}
}

// traceSpans are the program's own spans from a traced pass, reduced
// to what the layer metrics need.
type traceSpans struct {
	worlds     int
	worldHostS float64
	simulateS  float64
}

func (ts *traceSpans) add(o traceSpans) {
	ts.worlds += o.worlds
	ts.worldHostS += o.worldHostS
	ts.simulateS += o.simulateS
}

// collectSpans reads a finished trace through its Chrome export, the
// program's one public view of recorded spans.
func collectSpans(tr *obs.Trace) (traceSpans, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		return traceSpans{}, err
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		Meta struct {
			Dropped int `json:"dropped_spans"`
		} `json:"petasim"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		return traceSpans{}, fmt.Errorf("reading trace export: %w", err)
	}
	if f.Meta.Dropped > 0 {
		return traceSpans{}, fmt.Errorf("trace dropped %d spans", f.Meta.Dropped)
	}
	var ts traceSpans
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "simmpi.world":
			ts.worlds++
			ts.worldHostS += ev.Dur / 1e6
		case "runner.simulate":
			ts.simulateS += ev.Dur / 1e6
		}
	}
	return ts, nil
}

// into records the span-derived metrics, per traced pass.
func (ts traceSpans) into(m map[string]float64, passes int) {
	k := 1 / float64(passes)
	m["simmpi.worlds"] = float64(ts.worlds) * k
	m["simmpi.world_host_s"] = ts.worldHostS * k
	// A simulation's time outside its world is spent queueing for a
	// pool slot (plus the job's own set-up and result assembly).
	m["runner.slot_wait_s"] = (ts.simulateS - ts.worldHostS) * k
}

// resolveSpec maps a result's machine name back to its spec, including
// the virtual-node variants the figures name with a "-vn" suffix.
func resolveSpec(name string) (machine.Spec, error) {
	if base, ok := strings.CutSuffix(name, "-vn"); ok {
		s, err := machine.Find(base)
		if err != nil {
			return machine.Spec{}, err
		}
		return s.WithMode(machine.VirtualNode), nil
	}
	return machine.Find(name)
}

// replay re-runs each point serially through apps.RunPoint, from a cold
// HyperCLaw trajectory cache, timing each application and summing the
// simulated counts from the reports. Each replay must reproduce the
// pooled pass's point exactly (serial = parallel, DESIGN §6a); a
// mismatch is a failed operation.
func replay(ctx context.Context, results []runner.Result, m map[string]float64, log func(string, ...any)) (attempted, failed int) {
	hyperclaw.ResetTrajectoryCache()
	var messages, bytesSent, virtual float64
	for _, r := range results {
		attempted++
		w, err := apps.Lookup(r.App)
		if err != nil {
			failed++
			log("replay %s: %v", r.App, err)
			continue
		}
		spec, err := resolveSpec(r.Machine)
		if err != nil {
			failed++
			log("replay %s: %v", r.Machine, err)
			continue
		}
		t0 := time.Now()
		rep, err := apps.RunPoint(ctx, w, spec, r.Procs)
		m["apps."+strings.ToLower(w.Name())+".host_s"] += time.Since(t0).Seconds()
		if err != nil {
			failed++
			log("replay %s %s P=%d: %v", r.App, r.Machine, r.Procs, err)
			continue
		}
		if rep.GflopsPerProc() != r.Gflops || float64(rep.Wall) != r.WallSec {
			failed++
			log("replay %s %s P=%d: serial replay diverged from the pooled pass", r.App, r.Machine, r.Procs)
		}
		messages += float64(rep.Messages)
		bytesSent += rep.BytesSent
		virtual += float64(rep.Wall)
	}
	m["simmpi.messages"] = messages
	m["simmpi.bytes_sent"] = bytesSent
	m["simmpi.virtual_s"] = virtual
	return attempted, failed
}
