package grid

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		8:  {2, 2, 2},
		64: {4, 4, 4},
		12: {2, 2, 3},
	}
	for p, want := range cases {
		x, y, z := Factor3(p)
		if [3]int{x, y, z} != want {
			t.Errorf("Factor3(%d) = %d,%d,%d, want %v", p, x, y, z, want)
		}
	}
	// Property: factors always multiply back to p and are ordered.
	f := func(n uint16) bool {
		p := int(n%512) + 1
		x, y, z := Factor3(p)
		return x*y*z == p && x <= y && y <= z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecompCoordsRankRoundTrip(t *testing.T) {
	d, err := NewDecomp(24, 48, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.Procs(); r++ {
		px, py, pz := d.Coords(r)
		if d.Rank(px, py, pz) != r {
			t.Fatalf("rank %d round trip failed", r)
		}
	}
}

func TestDecompCoversGridExactly(t *testing.T) {
	d, err := NewDecomp(12, 50, 31, 17)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 0; r < d.Procs(); r++ {
		lx, ly, lz := d.LocalExtent(r)
		if lx <= 0 || ly <= 0 || lz <= 0 {
			t.Fatalf("rank %d has empty extent", r)
		}
		total += lx * ly * lz
	}
	if want := 50 * 31 * 17; total != want {
		t.Errorf("decomposition covers %d cells, want %d", total, want)
	}
}

func TestDecompRejectsOversubscription(t *testing.T) {
	if _, err := NewDecomp(64, 2, 2, 2); err == nil {
		t.Error("64 procs on 8 cells accepted")
	}
	if _, err := NewDecomp(0, 8, 8, 8); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestNeighborPeriodicity(t *testing.T) {
	d, _ := NewDecomp(27, 27, 27, 27)
	for r := 0; r < 27; r++ {
		for dim := 0; dim < 3; dim++ {
			up := d.Neighbor(r, dim, +1)
			if d.Neighbor(up, dim, -1) != r {
				t.Fatalf("neighbour inverse broken at rank %d dim %d", r, dim)
			}
		}
	}
}

func TestFieldIndexing(t *testing.T) {
	f := NewField(4, 3, 2, 1)
	f.Set(0, 0, 0, 42)
	f.Set(-1, -1, -1, 7)
	f.Set(4, 3, 2, 9) // far ghost corner
	if f.At(0, 0, 0) != 42 || f.At(-1, -1, -1) != 7 || f.At(4, 3, 2) != 9 {
		t.Error("field get/set with ghosts broken")
	}
	if want := 6 * 5 * 4; len(f.Data) != want {
		t.Errorf("field storage %d, want %d", len(f.Data), want)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := NewField(4, 4, 4, 2)
	f.FillInterior(func(i, j, k int) float64 { return float64(100*i + 10*j + k) })
	// Low X face packed then unpacked into high ghosts must land the
	// interior low cells at i = LX..LX+G-1.
	face := f.PackFaceX(nil, -1, false, false)
	if want := 2 * 4 * 4; len(face) != want {
		t.Fatalf("face length %d, want %d", len(face), want)
	}
	f.UnpackGhostX(+1, false, false, face)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for g := 0; g < 2; g++ {
				if f.At(4+g, j, k) != f.At(g, j, k) {
					t.Fatalf("ghost (%d,%d,%d) != interior", 4+g, j, k)
				}
			}
		}
	}
}

// periodic returns the value of a periodic nx×ny×nz global field whose
// cells carry their wrapped coordinates, offset by base.
func periodic(nx, ny, nz int, base float64) func(i, j, k int) float64 {
	return func(i, j, k int) float64 {
		i = ((i % nx) + nx) % nx
		j = ((j % ny) + ny) % ny
		k = ((k % nz) + nz) % nz
		return base + float64(i*10000+j*100+k)
	}
}

// ghostMismatch compares every cell of a rank's field, ghosts included,
// with the global field and describes the first difference, or returns
// "" when all match.
func ghostMismatch(d Decomp, rank int, f *Field, global func(i, j, k int) float64) string {
	ox, oy, oz := d.GlobalOrigin(rank)
	g := f.G
	for k := -g; k < f.LZ+g; k++ {
		for j := -g; j < f.LY+g; j++ {
			for i := -g; i < f.LX+g; i++ {
				want := global(ox+i, oy+j, oz+k)
				if got := f.At(i, j, k); got != want {
					return fmt.Sprintf("rank=%d cell (%d,%d,%d) = %g, want %g", rank, i, j, k, got, want)
				}
			}
		}
	}
	return ""
}

// TestExchangeMatchesGlobalPeriodic is the key correctness test: after a
// ghost exchange, every ghost cell must equal the periodic global field.
func TestExchangeMatchesGlobalPeriodic(t *testing.T) {
	const nx, ny, nz, g = 12, 12, 12, 2
	global := periodic(nx, ny, nz, 0)
	for _, p := range []int{1, 2, 4, 8} {
		d, err := NewDecomp(p, nx, ny, nz)
		if err != nil {
			t.Fatal(err)
		}
		_, err = simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Jaguar, Procs: p}, func(r *simmpi.Rank) {
			lx, ly, lz := d.LocalExtent(r.ID())
			ox, oy, oz := d.GlobalOrigin(r.ID())
			f := NewField(lx, ly, lz, g)
			f.FillInterior(func(i, j, k int) float64 { return global(ox+i, oy+j, oz+k) })
			ex := &Exchanger{Decomp: d, Rank: r, NomScale: 1}
			ex.Exchange(f)
			if msg := ghostMismatch(d, r.ID(), f, global); msg != "" {
				t.Errorf("p=%d %s", p, msg)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestExchangeRecycledBuffers repeats exchanges of two fields with
// poison-on-put enabled. Ghost faces travel in pooled buffers that the
// receiver frees after unpacking; a face read after its buffer went back
// to the pool, or a buffer recycled while a peer still owns it, would
// leave PoisonValue NaNs or a stale round's values in the ghosts.
func TestExchangeRecycledBuffers(t *testing.T) {
	defer simmpi.SetPoisonPutsForTest(simmpi.SetPoisonPutsForTest(true))
	const g, rounds = 2, 5
	// 13×10×9 splits unevenly, so neighbouring ranks differ in extent.
	for _, n := range [][3]int{{12, 12, 12}, {13, 10, 9}} {
		for _, p := range []int{1, 2, 4, 8} {
			d, err := NewDecomp(p, n[0], n[1], n[2])
			if err != nil {
				t.Fatal(err)
			}
			cfg := simmpi.Config{Machine: machine.Jaguar, Procs: p}
			_, err = simmpi.RunContext(context.Background(), cfg, func(r *simmpi.Rank) {
				lx, ly, lz := d.LocalExtent(r.ID())
				ox, oy, oz := d.GlobalOrigin(r.ID())
				a := NewField(lx, ly, lz, g)
				b := NewField(lx, ly, lz, g)
				ex := &Exchanger{Decomp: d, Rank: r, NomScale: 1}
				for round := 0; round < rounds; round++ {
					ga := periodic(n[0], n[1], n[2], float64(2*round)*1e6)
					gb := periodic(n[0], n[1], n[2], float64(2*round+1)*1e6)
					a.FillInterior(func(i, j, k int) float64 { return ga(ox+i, oy+j, oz+k) })
					b.FillInterior(func(i, j, k int) float64 { return gb(ox+i, oy+j, oz+k) })
					ex.Exchange(a, b)
					for fi, c := range []struct {
						f      *Field
						global func(i, j, k int) float64
					}{{a, ga}, {b, gb}} {
						if msg := ghostMismatch(d, r.ID(), c.f, c.global); msg != "" {
							t.Errorf("grid %v p=%d round %d field %d: %s", n, p, round, fi, msg)
							return
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExchangeSteadyStateAllocs bounds the host allocations of a
// steady-state exchange: faces are packed into pooled buffers and freed
// by their receivers, so extra exchanges in a world must cost no new
// allocations per rank.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per synchronization event")
	}
	const p = 8
	d, err := NewDecomp(p, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simmpi.Config{Machine: machine.Jaguar, Procs: p}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := simmpi.RunContext(context.Background(), cfg, func(r *simmpi.Rank) {
				lx, ly, lz := d.LocalExtent(r.ID())
				f := NewField(lx, ly, lz, 1)
				ex := &Exchanger{Decomp: d, Rank: r, NomScale: 1}
				for i := 0; i < n; i++ {
					ex.Exchange(f)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 10, 40
	few, many := allocs(short), allocs(long)
	if per := (many - few) / float64((long-short)*p); per >= 1 {
		t.Errorf("steady-state exchange allocates %.2f times per rank (%g allocs for %d exchanges, %g for %d)",
			per, few, short, many, long)
	}
}

func TestExchangeChargesNominalScale(t *testing.T) {
	const p = 8
	run := func(scale float64) float64 {
		d, _ := NewDecomp(p, 16, 16, 16)
		rep, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.BGL, Procs: p}, func(r *simmpi.Rank) {
			lx, ly, lz := d.LocalExtent(r.ID())
			f := NewField(lx, ly, lz, 1)
			ex := &Exchanger{Decomp: d, Rank: r, NomScale: scale}
			ex.Exchange(f)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	if small, big := run(1), run(1000); big < 5*small {
		t.Errorf("nominal scaling not charged: %g vs %g", small, big)
	}
}

func TestExchangeMultipleFields(t *testing.T) {
	const p = 2
	d, _ := NewDecomp(p, 8, 4, 4)
	_, err := simmpi.RunContext(t.Context(), simmpi.Config{Machine: machine.Bassi, Procs: p}, func(r *simmpi.Rank) {
		lx, ly, lz := d.LocalExtent(r.ID())
		a := NewField(lx, ly, lz, 1)
		b := NewField(lx, ly, lz, 1)
		a.FillInterior(func(i, j, k int) float64 { return 1 })
		b.FillInterior(func(i, j, k int) float64 { return 2 })
		ex := &Exchanger{Decomp: d, Rank: r, NomScale: 1}
		ex.Exchange(a, b)
		if a.At(-1, 0, 0) != 1 || b.At(-1, 0, 0) != 2 {
			t.Errorf("fields cross-contaminated: %g %g", a.At(-1, 0, 0), b.At(-1, 0, 0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
