// Package grid provides the regular-grid substrate shared by the stencil
// applications (ELBM3D, Cactus): 3D Cartesian block decompositions over a
// process grid, ghost-cell fields, and the 6-face ghost exchange whose
// pattern appears in the paper's Figures 1(b) and 1(c).
package grid

import (
	"fmt"
)

// Factor3 splits p into three near-equal factors px·py·pz = p, preferring
// balanced (minimal-surface) decompositions.
func Factor3(p int) (px, py, pz int) {
	best := [3]int{1, 1, p}
	bestScore := float64(1 + p + p)
	for x := 1; x*x*x <= p; x++ {
		if p%x != 0 {
			continue
		}
		m := p / x
		for y := x; y*y <= m; y++ {
			if m%y != 0 {
				continue
			}
			z := m / y
			score := float64(x*y + y*z + x*z)
			if score < bestScore {
				bestScore = score
				best = [3]int{x, y, z}
			}
		}
	}
	return best[0], best[1], best[2]
}

// Decomp is a 3D block decomposition of an NX×NY×NZ global grid over a
// PX×PY×PZ process grid with periodic boundaries.
type Decomp struct {
	PX, PY, PZ int
	NX, NY, NZ int
}

// NewDecomp builds a near-cubic decomposition of the global grid over p
// processes. Every process dimension must not exceed the grid dimension.
func NewDecomp(p, nx, ny, nz int) (Decomp, error) {
	if p < 1 {
		return Decomp{}, fmt.Errorf("grid: nonpositive process count %d", p)
	}
	px, py, pz := Factor3(p)
	d := Decomp{PX: px, PY: py, PZ: pz, NX: nx, NY: ny, NZ: nz}
	if px > nx || py > ny || pz > nz {
		return Decomp{}, fmt.Errorf("grid: process grid %dx%dx%d exceeds %dx%dx%d cells",
			px, py, pz, nx, ny, nz)
	}
	return d, nil
}

// Procs returns the total process count of the decomposition.
func (d Decomp) Procs() int { return d.PX * d.PY * d.PZ }

// Coords returns the process-grid coordinates of a rank (x fastest).
func (d Decomp) Coords(rank int) (px, py, pz int) {
	px = rank % d.PX
	py = (rank / d.PX) % d.PY
	pz = rank / (d.PX * d.PY)
	return
}

// Rank returns the rank at process-grid coordinates, with periodic wrap.
func (d Decomp) Rank(px, py, pz int) int {
	px = ((px % d.PX) + d.PX) % d.PX
	py = ((py % d.PY) + d.PY) % d.PY
	pz = ((pz % d.PZ) + d.PZ) % d.PZ
	return px + d.PX*(py+d.PY*pz)
}

// Neighbor returns the rank offset by dir (±1) along dim (0=x,1=y,2=z).
func (d Decomp) Neighbor(rank, dim, dir int) int {
	px, py, pz := d.Coords(rank)
	switch dim {
	case 0:
		px += dir
	case 1:
		py += dir
	default:
		pz += dir
	}
	return d.Rank(px, py, pz)
}

// blockRange returns the half-open global index range [lo, hi) owned by
// process coordinate c of pdim processes over n cells.
func blockRange(c, pdim, n int) (lo, hi int) {
	lo = c * n / pdim
	hi = (c + 1) * n / pdim
	return
}

// LocalExtent returns the local interior size of a rank.
func (d Decomp) LocalExtent(rank int) (lx, ly, lz int) {
	px, py, pz := d.Coords(rank)
	x0, x1 := blockRange(px, d.PX, d.NX)
	y0, y1 := blockRange(py, d.PY, d.NY)
	z0, z1 := blockRange(pz, d.PZ, d.NZ)
	return x1 - x0, y1 - y0, z1 - z0
}

// GlobalOrigin returns the global coordinates of a rank's first cell.
func (d Decomp) GlobalOrigin(rank int) (gx, gy, gz int) {
	px, py, pz := d.Coords(rank)
	gx, _ = blockRange(px, d.PX, d.NX)
	gy, _ = blockRange(py, d.PY, d.NY)
	gz, _ = blockRange(pz, d.PZ, d.NZ)
	return
}

// Field is a 3D scalar field with a ghost halo of width G. Interior
// indices run [0, LX)×[0, LY)×[0, LZ); ghosts extend to -G and L+G.
type Field struct {
	LX, LY, LZ int
	G          int
	Data       []float64
}

// NewField allocates a zeroed field with the given interior and halo.
func NewField(lx, ly, lz, g int) *Field {
	ex, ey, ez := lx+2*g, ly+2*g, lz+2*g
	return &Field{
		LX: lx, LY: ly, LZ: lz, G: g,
		Data: make([]float64, ex*ey*ez),
	}
}

// Idx converts (possibly ghost) coordinates into a Data offset.
func (f *Field) Idx(i, j, k int) int {
	ex, ey := f.LX+2*f.G, f.LY+2*f.G
	return (i + f.G) + ex*((j+f.G)+ey*(k+f.G))
}

// At reads element (i, j, k).
func (f *Field) At(i, j, k int) float64 { return f.Data[f.Idx(i, j, k)] }

// Set writes element (i, j, k).
func (f *Field) Set(i, j, k int, v float64) { f.Data[f.Idx(i, j, k)] = v }

// FillInterior applies fn(i,j,k) to every interior cell.
func (f *Field) FillInterior(fn func(i, j, k int) float64) {
	for k := 0; k < f.LZ; k++ {
		for j := 0; j < f.LY; j++ {
			for i := 0; i < f.LX; i++ {
				f.Set(i, j, k, fn(i, j, k))
			}
		}
	}
}

// sweepBounds returns the ghost-inclusive loop bounds for dimensions
// already exchanged, so that edge and corner ghosts fill in after all
// three dimension sweeps.
func sweepBounds(l, g int, includeGhost bool) (lo, hi int) {
	if includeGhost {
		return -g, l + g
	}
	return 0, l
}

// slab returns the thickness-g layer at side dir (-1 low, +1 high) of a
// dimension of length l: the interior cells against that boundary, or
// with ghost set the ghost cells beyond it.
func slab(l, g, dir int, ghost bool) (lo, hi int) {
	switch {
	case dir < 0 && ghost:
		return -g, 0
	case dir < 0:
		return 0, g
	case ghost:
		return l, l + g
	}
	return l - g, l
}

// box is a half-open cell range [lo, hi) per dimension (x, y, z). Faces
// are packed k-outer, j, then i, so every (j, k) row of a box is one
// contiguous run of Data.
type box struct{ lo, hi [3]int }

// size returns the number of cells in the box.
func (b box) size() int {
	return (b.hi[0] - b.lo[0]) * (b.hi[1] - b.lo[1]) * (b.hi[2] - b.lo[2])
}

// face returns the layer of thickness G at side dir of dimension dim:
// the interior cells against that boundary, or with ghost set the ghost
// cells beyond it. The other dimensions are ghost-inclusive where done
// is set.
func (f *Field) face(dim, dir int, ghost bool, done [3]bool) (b box) {
	for d, l := range [3]int{f.LX, f.LY, f.LZ} {
		if d == dim {
			b.lo[d], b.hi[d] = slab(l, f.G, dir, ghost)
		} else {
			b.lo[d], b.hi[d] = sweepBounds(l, f.G, done[d])
		}
	}
	return b
}

// pack appends the box's cells to dst row by row.
func (f *Field) pack(dst []float64, b box) []float64 {
	n := b.hi[0] - b.lo[0]
	for k := b.lo[2]; k < b.hi[2]; k++ {
		for j := b.lo[1]; j < b.hi[1]; j++ {
			o := f.Idx(b.lo[0], j, k)
			dst = append(dst, f.Data[o:o+n]...)
		}
	}
	return dst
}

// unpack stores data, in pack order, into the box's cells.
func (f *Field) unpack(b box, data []float64) {
	n := b.hi[0] - b.lo[0]
	for k := b.lo[2]; k < b.hi[2]; k++ {
		for j := b.lo[1]; j < b.hi[1]; j++ {
			o := f.Idx(b.lo[0], j, k)
			data = data[copy(f.Data[o:o+n], data):]
		}
	}
}

// PackFaceX appends the x-face of thickness G at side dir (-1 sends the
// low face, +1 the high face) to dst, ghost-inclusive in y/z per
// doneY/doneZ.
func (f *Field) PackFaceX(dst []float64, dir int, doneY, doneZ bool) []float64 {
	return f.pack(dst, f.face(0, dir, false, [3]bool{false, doneY, doneZ}))
}

// UnpackGhostX stores a received face into the x ghosts at side dir.
func (f *Field) UnpackGhostX(dir int, doneY, doneZ bool, data []float64) {
	f.unpack(f.face(0, dir, true, [3]bool{false, doneY, doneZ}), data)
}

// PackFaceY and UnpackGhostY mirror the x versions for dimension y.
func (f *Field) PackFaceY(dst []float64, dir int, doneX, doneZ bool) []float64 {
	return f.pack(dst, f.face(1, dir, false, [3]bool{doneX, false, doneZ}))
}

// UnpackGhostY stores a received y-face into ghosts.
func (f *Field) UnpackGhostY(dir int, doneX, doneZ bool, data []float64) {
	f.unpack(f.face(1, dir, true, [3]bool{doneX, false, doneZ}), data)
}

// PackFaceZ and UnpackGhostZ mirror the x versions for dimension z.
func (f *Field) PackFaceZ(dst []float64, dir int, doneX, doneY bool) []float64 {
	return f.pack(dst, f.face(2, dir, false, [3]bool{doneX, doneY, false}))
}

// UnpackGhostZ stores a received z-face into ghosts.
func (f *Field) UnpackGhostZ(dir int, doneX, doneY bool, data []float64) {
	f.unpack(f.face(2, dir, true, [3]bool{doneX, doneY, false}), data)
}
