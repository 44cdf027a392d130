package apexmap

import (
	"context"
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

func cfg() Config {
	c := DefaultConfig()
	c.TableSize = 1 << 12
	c.Accesses = 64
	c.Rounds = 2
	return c
}

func TestValidation(t *testing.T) {
	bad := cfg()
	bad.Alpha = 0
	if err := bad.validate(4); err == nil {
		t.Error("alpha 0 accepted")
	}
	bad = cfg()
	bad.L = 1 << 20
	if err := bad.validate(4); err == nil {
		t.Error("oversized block accepted")
	}
	bad = cfg()
	bad.TableSize = 2
	if err := bad.validate(4); err == nil {
		t.Error("undersized table accepted")
	}
}

func TestRunProducesRate(t *testing.T) {
	res, err := Run(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: 8}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessPerUs <= 0 {
		t.Errorf("nonpositive access rate: %+v", res)
	}
	if res.RemoteFrac < 0 || res.RemoteFrac > 1 {
		t.Errorf("remote fraction %g out of range", res.RemoteFrac)
	}
}

func TestLowAlphaIsMoreLocal(t *testing.T) {
	// Small alpha concentrates accesses near the rank's own base, so the
	// remote fraction must rise with alpha.
	frac := func(alpha float64) float64 {
		c := cfg()
		c.Alpha = alpha
		res, err := Run(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: 8}, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.RemoteFrac
	}
	if lo, hi := frac(0.05), frac(1.0); lo >= hi {
		t.Errorf("remote fraction not increasing with alpha: %g vs %g", lo, hi)
	}
}

func TestLocalityHelpsPerformance(t *testing.T) {
	// High temporal locality (small alpha) must sustain a higher access
	// rate than uniform random access — the Apex-MAP signature.
	rate := func(alpha float64) float64 {
		c := cfg()
		c.Alpha = alpha
		res, err := Run(t.Context(), simmpi.Config{Machine: machine.BGL, Procs: 16}, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.AccessPerUs
	}
	if local, random := rate(0.05), rate(1.0); local <= random {
		t.Errorf("locality did not help: α=0.05 → %.3f, α=1.0 → %.3f", local, random)
	}
}

func TestSpatialBlocksAmortiseLatency(t *testing.T) {
	// Larger L moves more data per access: the per-ELEMENT rate
	// (accesses·L per microsecond) must improve with block length.
	perElem := func(l int) float64 {
		c := cfg()
		c.L = l
		res, err := Run(t.Context(), simmpi.Config{Machine: machine.Jacquard, Procs: 8}, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.AccessPerUs * float64(l)
	}
	if small, big := perElem(1), perElem(64); small >= big {
		t.Errorf("block length did not amortise latency: L=1 → %.3f, L=64 → %.3f elem/µs", small, big)
	}
}

func TestSweepCoversPlane(t *testing.T) {
	res, err := Sweep(t.Context(), machine.Phoenix, 8, []float64{0.1, 1.0}, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results, want 4", len(res))
	}
	for _, r := range res {
		if r.AccessPerUs <= 0 {
			t.Errorf("bad sweep point %+v", r)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		res, err := Run(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: 8}, cfg())
		if err != nil {
			t.Fatal(err)
		}
		return res.AccessPerUs
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	res, err := Run(ctx, simmpi.Config{Machine: machine.Jaguar, Procs: 8}, cfg())
	if !errors.Is(err, context.Canceled) || res != (Result{}) {
		t.Fatalf("pre-cancelled Run = %+v, %v; want no result and context.Canceled", res, err)
	}
}
