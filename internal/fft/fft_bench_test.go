package fft

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

func BenchmarkForward1K(b *testing.B) {
	x := randVec(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForward64K(b *testing.B) {
	x := randVec(65536, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForward3D32(b *testing.B) {
	g := NewGrid3(32, 32, 32)
	for i := range g.Data {
		g.Data[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Forward3(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallel3D exercises the distributed transform with its
// transposes over the simulated MPI runtime.
func BenchmarkParallel3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := simmpi.RunContext(b.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: 8}, func(r *simmpi.Rank) {
			plan, err := NewParallel3D(r, r.World(), 32, 32, 32, 256, 256, 256)
			if err != nil {
				panic(err)
			}
			slab := make([]complex128, plan.SlabLen())
			slab[0] = 1
			pencil, err := plan.Forward(slab)
			if err != nil {
				panic(err)
			}
			if _, err := plan.Inverse(pencil); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
