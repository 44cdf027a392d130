package beambeam3d

import (
	"context"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

func smallCfg() Config {
	cfg := DefaultConfig(4)
	cfg.NX, cfg.NY, cfg.NZ = 8, 8, 4
	cfg.ParticlesPerRank = 200
	cfg.Steps = 2
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := smallCfg()
	bad.NX = 12
	if err := bad.validate(4); err == nil {
		t.Error("non-power-of-two grid accepted")
	}
	bad = smallCfg()
	bad.NomNX = 4
	if err := bad.validate(4); err == nil {
		t.Error("nominal below actual accepted")
	}
	bad = smallCfg()
	bad.Steps = 0
	if err := bad.validate(4); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestChargeConservation(t *testing.T) {
	const procs = 4
	cfg := smallCfg()
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: procs}, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		st.depositAndGather()
		for b := 0; b < 2; b++ {
			got := st.TotalCharge(b)
			want := float64(procs * cfg.ParticlesPerRank)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("beam %d gathered charge %g, want %g", b, got, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPoissonSolverRecoversSmoothPotential(t *testing.T) {
	// Load a single Fourier mode of charge and verify the solver returns
	// the analytic potential φ = ρ/k² via the field differentiation.
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: 2}, func(r *simmpi.Rank) {
		cfg := smallCfg()
		cfg.ParticlesPerRank = 1
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		nx, ny, nz := cfg.NX, cfg.NY, cfg.NZ
		kx := 2 * math.Pi
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					x := float64(i) / float64(nx)
					st.rho[0][st.cellIndex(i, j, k)] = math.Cos(kx * x)
					st.rho[1][st.cellIndex(i, j, k)] = 0
				}
			}
		}
		st.solveFields()
		// φ = cos(2πx)/(2π)²; E_x = −dφ/dx·(discrete) ≈ sin(2πx)/(2π)·k_eff.
		// Check the field is sinusoidal with the right phase and a
		// consistent amplitude at two probe points.
		at := func(i int) float64 { return st.exF[0][st.cellIndex(i, 0, 0)] }
		quarter := at(nx / 4)    // sin(π/2) = max
		threeQ := at(3 * nx / 4) // sin(3π/2) = min
		if quarter <= 0 || threeQ >= 0 {
			t.Errorf("field phase wrong: E(¼)=%g, E(¾)=%g", quarter, threeQ)
		}
		if d := math.Abs(quarter + threeQ); d > 1e-9 {
			t.Errorf("field not antisymmetric: %g", d)
		}
		// Amplitude: E_max = k_d/(2π)² · (sin correction) ≈ 1/(2π) · c;
		// accept a broad band to cover discrete-k effects.
		want := 1 / (2 * math.Pi)
		if quarter < 0.5*want || quarter > 1.5*want {
			t.Errorf("field amplitude %g, want ≈%g", quarter, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBeamsRepelTransversely(t *testing.T) {
	// Both beams deposit like-signed charge, so the beam-beam force is
	// repulsive: beam 0 (at x≈0.4) must be pushed away from beam 1
	// (at x≈0.6), i.e. feel a negative E_x.
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: 2}, func(r *simmpi.Rank) {
		cfg := smallCfg()
		cfg.Steps = 1
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		// Beam 0 sits at x≈0.4, beam 1 at x≈0.6.
		gap0 := st.BeamCentroid(1) - st.BeamCentroid(0)
		st.depositAndGather()
		st.solveFields()
		// Probe the kick direction: beam 0 particles must be pushed
		// away from beam 1 (toward −x).
		var meanEx float64
		for _, p := range st.beams[0] {
			stc := st.cic(p.X, p.Y, p.Z)
			for c := 0; c < 8; c++ {
				meanEx += stc.w[c] * st.exF[1][stc.idx[c]]
			}
		}
		meanEx /= float64(len(st.beams[0]))
		if gap0 < 0 {
			t.Fatalf("beam layout unexpected: gap %g", gap0)
		}
		if meanEx >= 0 {
			t.Errorf("beam 0 feels E_x = %g from beam 1, want negative (repulsion)", meanEx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransferMapPreservesEmittanceWithoutKick(t *testing.T) {
	// With fields zeroed, the linear rotation must preserve the RMS
	// emittance exactly.
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
		cfg := smallCfg()
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		e0 := st.Emittance(0)
		for step := 0; step < 5; step++ {
			st.kickAndMap() // fields are all zero before any solve
		}
		e1 := st.Emittance(0)
		if math.Abs(e1-e0)/e0 > 1e-9 {
			t.Errorf("emittance drifted under pure rotation: %g → %g", e0, e1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParticleCountFixed(t *testing.T) {
	// Particle-field decomposition: particles never migrate between ranks.
	cfg := smallCfg()
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: 4}, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < cfg.Steps; i++ {
			st.Step()
		}
		if len(st.beams[0]) != cfg.ParticlesPerRank || len(st.beams[1]) != cfg.ParticlesPerRank {
			t.Errorf("particle counts changed: %d/%d", len(st.beams[0]), len(st.beams[1]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunLowSustainedEfficiency(t *testing.T) {
	// §6.1: "no platform attained more than about 5% of theoretical peak".
	for _, m := range []machine.Spec{machine.Bassi, machine.Jaguar} {
		rep, err := Run(context.Background(), simmpi.Config{Machine: m, Procs: 64}, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		pct := rep.PercentOfPeak(m.PeakGFs)
		if pct > 10 {
			t.Errorf("%s: %%peak %.1f, paper caps BB3D near 5%%", m.Name, pct)
		}
		if pct <= 0.2 {
			t.Errorf("%s: %%peak %.2f implausibly low", m.Name, pct)
		}
	}
}

func TestParallelEfficiencyDeclines(t *testing.T) {
	// Strong scaling with heavy global communication: parallel efficiency
	// at 64 ranks must be well below the 8-rank value.
	gf := func(p int) float64 {
		rep, err := Run(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: p}, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		return rep.GflopsPerProc()
	}
	g8, g64 := gf(8), gf(64)
	if g64 >= g8 {
		t.Errorf("no strong-scaling decline: %.3f → %.3f Gflops/P", g8, g64)
	}
}

func TestPhoenixCommFractionHigh(t *testing.T) {
	// §6.1: at 256 processors over 50% of Phoenix's runtime is
	// communication; the vector processor computes fast and then waits.
	rep, err := Run(context.Background(), simmpi.Config{Machine: machine.Phoenix, Procs: 128}, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommFrac < 0.35 {
		t.Errorf("Phoenix comm fraction %.2f, expected the communication bottleneck", rep.CommFrac)
	}
}

func TestDeterminism(t *testing.T) {
	wall := func() float64 {
		rep, err := Run(context.Background(), simmpi.Config{Machine: machine.BGL, Procs: 8}, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	if a, b := wall(), wall(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}
