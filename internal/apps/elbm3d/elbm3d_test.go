package elbm3d

import (
	"context"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

func smallCfg(steps int) Config {
	return Config{NominalN: 16, ActualN: 16, Steps: steps, Beta: 0.9, MathLib: machine.VendorVector}
}

func TestEquilibriumMomentsExact(t *testing.T) {
	// The D3Q19 second-order equilibrium reproduces ρ and ρu exactly.
	eq := equilibrium(1.2, 0.05, -0.03, 0.02)
	var rho, mx, my, mz float64
	for q := 0; q < Q; q++ {
		rho += eq[q]
		mx += eq[q] * float64(ex[q])
		my += eq[q] * float64(ey[q])
		mz += eq[q] * float64(ez[q])
	}
	if math.Abs(rho-1.2) > 1e-12 {
		t.Errorf("rho = %g, want 1.2", rho)
	}
	if math.Abs(mx-1.2*0.05) > 1e-12 || math.Abs(my+1.2*0.03) > 1e-12 || math.Abs(mz-1.2*0.02) > 1e-12 {
		t.Errorf("momentum = (%g,%g,%g)", mx, my, mz)
	}
}

func TestWeightsSumToOne(t *testing.T) {
	var s float64
	for q := 0; q < Q; q++ {
		s += wt[q]
	}
	if math.Abs(s-1) > 1e-14 {
		t.Errorf("weights sum to %g", s)
	}
	// Velocity set must be symmetric: Σ w e = 0.
	var sx, sy, sz float64
	for q := 0; q < Q; q++ {
		sx += wt[q] * float64(ex[q])
		sy += wt[q] * float64(ey[q])
		sz += wt[q] * float64(ez[q])
	}
	if sx != 0 || sy != 0 || sz != 0 {
		t.Errorf("velocity set asymmetric: %g %g %g", sx, sy, sz)
	}
}

func TestEntropicAlphaAtEquilibriumIsTwo(t *testing.T) {
	eq := equilibrium(1, 0.01, 0, 0)
	var delta [Q]float64 // zero
	if got := entropicAlpha(&eq, &delta); math.Abs(got-2) > 1e-9 {
		t.Errorf("alpha at equilibrium = %g, want 2", got)
	}
}

func TestEntropicAlphaBounded(t *testing.T) {
	f := equilibrium(1, 0.08, -0.02, 0.05)
	feq := equilibrium(1, 0.02, 0.01, -0.01)
	var delta [Q]float64
	for q := range delta {
		delta[q] = feq[q] - f[q]
	}
	a := entropicAlpha(&f, &delta)
	if a < 1 || a > 2.2 {
		t.Errorf("alpha %g outside physical bracket", a)
	}
}

func TestConservationOverSteps(t *testing.T) {
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
		st, err := NewState(r, smallCfg(5))
		if err != nil {
			panic(err)
		}
		m0, px0, py0, pz0 := st.Moments()
		for i := 0; i < 5; i++ {
			st.Step(r)
		}
		m1, px1, py1, pz1 := st.Moments()
		if math.Abs(m1-m0)/m0 > 1e-12 {
			t.Errorf("mass drifted: %g → %g", m0, m1)
		}
		for _, d := range []float64{px1 - px0, py1 - py0, pz1 - pz0} {
			if math.Abs(d) > 1e-9 {
				t.Errorf("momentum drifted by %g", d)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUniformStateIsFixedPoint(t *testing.T) {
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: 1}, func(r *simmpi.Rank) {
		cfg := smallCfg(3)
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		// Overwrite with a uniform equilibrium at rest.
		eq := equilibrium(1, 0, 0, 0)
		lx, ly, lz := st.f[0].LX, st.f[0].LY, st.f[0].LZ
		for k := 0; k < lz; k++ {
			for j := 0; j < ly; j++ {
				for i := 0; i < lx; i++ {
					for q := 0; q < Q; q++ {
						st.f[q].Set(i, j, k, eq[q])
					}
				}
			}
		}
		for s := 0; s < 3; s++ {
			st.Step(r)
		}
		for q := 0; q < Q; q++ {
			if got := st.f[q].At(1, 1, 1); math.Abs(got-eq[q]) > 1e-12 {
				t.Errorf("uniform state drifted: f[%d] = %g, want %g", q, got, eq[q])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKineticEnergyDecays(t *testing.T) {
	// The entropic collision is dissipative: shear-layer kinetic energy
	// must not grow.
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
		st, err := NewState(r, smallCfg(8))
		if err != nil {
			panic(err)
		}
		ke0 := st.KineticEnergy()
		for i := 0; i < 8; i++ {
			st.Step(r)
		}
		ke1 := st.KineticEnergy()
		if ke1 > ke0*1.0001 {
			t.Errorf("kinetic energy grew: %g → %g", ke0, ke1)
		}
		if ke1 <= 0 {
			t.Errorf("kinetic energy vanished: %g", ke1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesSerial is the decomposition-correctness test: the
// same actual lattice advanced on 1 and on 8 ranks must agree bitwise at
// a probe cell.
func TestParallelMatchesSerial(t *testing.T) {
	probe := func(p int) float64 {
		var val float64
		_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: p}, func(r *simmpi.Rank) {
			cfg := smallCfg(4)
			st, err := NewState(r, cfg)
			if err != nil {
				panic(err)
			}
			for s := 0; s < cfg.Steps; s++ {
				st.Step(r)
			}
			// Probe global cell (1,1,1): owned by the rank whose origin
			// is (0,0,0).
			ox, oy, oz := st.dec.GlobalOrigin(r.ID())
			if ox == 0 && oy == 0 && oz == 0 {
				val = st.Density(1, 1, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return val
	}
	serial, parallel := probe(1), probe(8)
	if serial == 0 || parallel == 0 {
		t.Fatal("probe cell not found")
	}
	if serial != parallel {
		t.Errorf("serial density %.17g != parallel %.17g", serial, parallel)
	}
}

func TestRunReportsSaneMetrics(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Steps = 2
	cfg.ActualN = 16
	rep, err := Run(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := rep.GflopsPerProc()
	if g <= 0 || g > machine.Bassi.PeakGFs {
		t.Errorf("Gflops/P = %g out of range", g)
	}
	pct := rep.PercentOfPeak(machine.Bassi.PeakGFs)
	if pct < 5 || pct > 50 {
		t.Errorf("%%peak = %.1f, expected in the paper's broad band", pct)
	}
}

func TestMathLibAblation(t *testing.T) {
	// §4.1: vendor vector log gives 15–30%. Check direction and rough size.
	wall := func(lib machine.MathLib) float64 {
		cfg := smallCfg(2)
		cfg.NominalN = 64
		cfg.MathLib = lib
		rep, err := Run(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 4}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	libm, vec := wall(machine.LibmDefault), wall(machine.VendorVector)
	boost := libm / vec
	if boost < 1.05 || boost > 1.8 {
		t.Errorf("vector log boost %.2fx outside the paper's 15–30%% band (broadly)", boost)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NominalN: 8, ActualN: 16, Steps: 1, Beta: 0.9},
		{NominalN: 16, ActualN: 16, Steps: 0, Beta: 0.9},
		{NominalN: 16, ActualN: 16, Steps: 1, Beta: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}
