package fft

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

// runParallel3D executes a distributed forward+inverse round trip on p
// ranks and returns the max reconstruction error and the report.
func runParallel3D(t *testing.T, p, nx, ny, nz int) (float64, *simmpi.Report) {
	t.Helper()
	errs := make([]float64, p)
	rep, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: p}, func(r *simmpi.Rank) {
		plan, err := NewParallel3D(r, r.World(), nx, ny, nz, nx, ny, nz)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(int64(r.ID() + 1)))
		slab := make([]complex128, plan.SlabLen())
		orig := make([]complex128, len(slab))
		for i := range slab {
			slab[i] = complex(rng.NormFloat64(), 0)
			orig[i] = slab[i]
		}
		pencil, err := plan.Forward(slab)
		if err != nil {
			panic(err)
		}
		back, err := plan.Inverse(pencil)
		if err != nil {
			panic(err)
		}
		var worst float64
		for i := range back {
			if d := absC(back[i] - orig[i]); d > worst {
				worst = d
			}
		}
		errs[r.ID()] = worst
	})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, e := range errs {
		if e > worst {
			worst = e
		}
	}
	return worst, rep
}

func absC(v complex128) float64 {
	re, im := real(v), imag(v)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	return re + im
}

func TestParallel3DRoundTrip(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		errv, _ := runParallel3D(t, p, 16, 8, 16)
		if errv > 1e-9 {
			t.Errorf("p=%d: round-trip error %g", p, errv)
		}
	}
}

// TestParallelMatchesSerial verifies that the distributed transform
// computes exactly the serial 3D transform.
func TestParallelMatchesSerial(t *testing.T) {
	const nx, ny, nz, p = 8, 4, 8, 4
	// Build a deterministic global field.
	global := NewGrid3(nx, ny, nz)
	rng := rand.New(rand.NewSource(99))
	for i := range global.Data {
		global.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := NewGrid3(nx, ny, nz)
	copy(want.Data, global.Data)
	if err := Forward3(want); err != nil {
		t.Fatal(err)
	}

	got := make([]complex128, nx*ny*nz) // gathered spectrum, x-fastest
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: p}, func(r *simmpi.Rank) {
		plan, err := NewParallel3D(r, r.World(), nx, ny, nz, nx, ny, nz)
		if err != nil {
			panic(err)
		}
		slab := make([]complex128, plan.SlabLen())
		for kl := 0; kl < nz/p; kl++ {
			k := plan.GlobalZ(kl)
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					slab[plan.SlabIndex(i, j, kl)] = *global.At(i, j, k)
				}
			}
		}
		pencil, err := plan.Forward(slab)
		if err != nil {
			panic(err)
		}
		// Collect every rank's pencil at rank 0 through the world comm.
		packed := packComplex(pencil)
		all := r.Allgather(r.World(), packed)
		if r.World().Rank(r) == 0 {
			for q, part := range all {
				blk := make([]complex128, len(part)/2)
				unpackComplex(part, blk)
				lx := nx / p
				for k := 0; k < nz; k++ {
					for j := 0; j < ny; j++ {
						for il := 0; il < lx; il++ {
							got[(q*lx+il)+nx*(j+ny*k)] = blk[il+lx*(j+ny*k)]
						}
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if absC(got[i]-want.Data[i]) > 1e-8 {
			t.Fatalf("spectrum mismatch at %d: %v vs %v", i, got[i], want.Data[i])
		}
	}
}

func TestParallel3DValidation(t *testing.T) {
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: 3}, func(r *simmpi.Rank) {
		if _, err := NewParallel3D(r, r.World(), 8, 8, 8, 8, 8, 8); err == nil {
			panic("3 ranks dividing 8 accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallel3DChargesCommunication(t *testing.T) {
	_, rep := runParallel3D(t, 8, 16, 8, 16)
	if rep.TotalFlops <= 0 {
		t.Error("no flops charged")
	}
	if rep.Wall <= 0 {
		t.Error("no time charged")
	}
	if rep.CommFrac <= 0 {
		t.Error("transposes charged no communication time")
	}
}

// TestNominalScalingCharges verifies that declaring a larger nominal grid
// increases charged time without changing the computed numbers.
func TestNominalScalingCharges(t *testing.T) {
	run := func(nomScale int) *simmpi.Report {
		rep, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: 4}, func(r *simmpi.Rank) {
			plan, err := NewParallel3D(r, r.World(), 8, 8, 8, 8*nomScale, 8*nomScale, 8*nomScale)
			if err != nil {
				panic(err)
			}
			slab := make([]complex128, plan.SlabLen())
			slab[0] = 1
			if _, err := plan.Forward(slab); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	small, big := run(1), run(8)
	if big.Wall < 10*small.Wall {
		t.Errorf("nominal scaling ineffective: wall %g vs %g", small.Wall, big.Wall)
	}
	if big.TotalFlops < 100*small.TotalFlops {
		t.Errorf("nominal flops not scaled: %g vs %g", small.TotalFlops, big.TotalFlops)
	}
}
