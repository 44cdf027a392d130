package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/runner"
)

// renderFig builds figure n through the given pool and renders it.
func renderFig(t *testing.T, n int, pool *runner.Pool) string {
	t.Helper()
	opts := Options{Quick: true, MaxProcs: 128, Runner: pool}
	fig, err := FigureN(context.Background(), opts, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFig2ParallelMatchesSerial is the determinism contract: fanning
// the point cross-product across workers must render byte-identically
// to the serial path.
func TestFig2ParallelMatchesSerial(t *testing.T) {
	serial := renderFig(t, 2, &runner.Pool{Workers: 1})
	parallel := renderFig(t, 2, &runner.Pool{Workers: 8})
	if serial != parallel {
		t.Fatalf("parallel Figure 2 diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

func TestTable1ParallelMatchesSerial(t *testing.T) {
	serial, err := Table1(context.Background(), Options{Runner: &runner.Pool{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table1(context.Background(), Options{Runner: &runner.Pool{Workers: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Table 1 diverged:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestAllFiguresPooledMatchesPerFigure checks that pooling the whole
// figure cross-product through one Run yields the same figures as
// building each one alone.
func TestAllFiguresPooledMatchesPerFigure(t *testing.T) {
	opts := Options{Quick: true, MaxProcs: 64, Runner: &runner.Pool{Workers: 8}}
	pooled, err := AllFigures(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled) != 6 {
		t.Fatalf("%d pooled figures, want 6", len(pooled))
	}
	for i := range pooled {
		alone, err := FigureN(context.Background(), Options{Quick: true, MaxProcs: 64}, i+2)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := alone.Render(&want); err != nil {
			t.Fatal(err)
		}
		if err := pooled[i].Render(&got); err != nil {
			t.Fatal(err)
		}
		if want.String() != got.String() {
			t.Errorf("%s diverged between pooled and standalone builds", alone.ID)
		}
	}
}

// TestAllFiguresDeterministic is the whole-suite determinism contract:
// the full figure set must render byte-identically with one worker,
// with GOMAXPROCS workers, and when every point is served from a warm
// cache. This is the property the benchmark-gated optimizations of the
// simulator core must preserve — any scheduling- or cache-dependent
// result shows up here as a byte diff.
func TestAllFiguresDeterministic(t *testing.T) {
	renderAll := func(pool *runner.Pool) []string {
		t.Helper()
		figs, err := AllFigures(context.Background(), Options{Quick: true, MaxProcs: 64, Runner: pool})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(figs))
		for i, fig := range figs {
			var buf bytes.Buffer
			if err := fig.Render(&buf); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.String()
		}
		return out
	}
	serial := renderAll(&runner.Pool{Workers: 1})
	parallel := renderAll(&runner.Pool{Workers: runtime.GOMAXPROCS(0)})
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold := &runner.Pool{Workers: runtime.GOMAXPROCS(0), Cache: cache}
	renderAll(cold)
	warmPool := &runner.Pool{Workers: runtime.GOMAXPROCS(0), Cache: cache}
	warm := renderAll(warmPool)
	if s := warmPool.Stats(); s.Simulated != 0 || s.Hits == 0 {
		t.Fatalf("warm stats %+v, want every point served from cache", s)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("figure %d diverged between Workers:1 and Workers:%d", i, runtime.GOMAXPROCS(0))
		}
		if serial[i] != warm[i] {
			t.Errorf("figure %d diverged between simulated and cache-served renders", i)
		}
	}
}

// TestFigureCacheSkipsResimulation runs Figure 3 twice against one
// cache directory; the second pool must serve every point from disk and
// render identically.
func TestFigureCacheSkipsResimulation(t *testing.T) {
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold := &runner.Pool{Workers: 4, Cache: cache}
	first := renderFig(t, 3, cold)
	if s := cold.Stats(); s.Hits != 0 || s.Simulated == 0 {
		t.Fatalf("cold stats %+v, want all points simulated", s)
	}
	warm := &runner.Pool{Workers: 4, Cache: cache}
	second := renderFig(t, 3, warm)
	if s := warm.Stats(); s.Simulated != 0 || s.Hits == 0 {
		t.Fatalf("warm stats %+v, want zero re-simulated points", s)
	}
	if first != second {
		t.Fatal("cached render diverged from simulated render")
	}
}

// TestFigureArtifacts checks the structured exports: every assembled
// point appears in the CSV and JSON forms.
func TestFigureArtifacts(t *testing.T) {
	opts := Options{Quick: true, MaxProcs: 64}
	fig, err := FigureN(context.Background(), opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range fig.Series {
		n += len(s.Points)
	}
	if len(fig.Results) != n {
		t.Fatalf("%d structured results for %d points", len(fig.Results), n)
	}
	var csv, js bytes.Buffer
	if err := fig.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := fig.JSON(&js); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(csv.Bytes(), []byte("\n")); lines != n+1 {
		t.Errorf("CSV has %d lines, want %d points + header", lines, n)
	}
	if !bytes.Contains(js.Bytes(), []byte(`"experiment": "Figure 3"`)) {
		t.Error("JSON export lacks the experiment field")
	}
}
