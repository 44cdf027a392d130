package grid

import (
	"repro/internal/simmpi"
)

// Exchanger performs periodic 6-face ghost exchanges of one or more fields
// for a rank of a Cartesian decomposition. Exchanging dimension by
// dimension with ghost-inclusive faces fills edge and corner ghosts too.
type Exchanger struct {
	Decomp Decomp
	Rank   *simmpi.Rank
	// NomScale multiplies actual face bytes to charge the nominal
	// problem's communication volume (1 for full-scale runs).
	NomScale float64

	tag int
}

// nominal converts an actual payload length into charged bytes.
func (e *Exchanger) nominal(n int) float64 {
	s := e.NomScale
	if s <= 0 {
		s = 1
	}
	return float64(n) * 8 * s
}

func (e *Exchanger) nextTag() int {
	e.tag++
	return e.tag
}

// Exchange refreshes all ghost cells of the given fields from the six
// topological neighbours. When the decomposition has a single process
// along a dimension, the exchange reduces to a local periodic copy.
func (e *Exchanger) Exchange(fields ...*Field) {
	rank := e.Rank.ID()
	d := e.Decomp
	for _, f := range fields {
		// X sweep, then Y (x ghosts now valid), then Z (x and y ghosts
		// now valid).
		e.sweep(f, 0, d.PX, rank)
		e.sweep(f, 1, d.PY, rank)
		e.sweep(f, 2, d.PZ, rank)
	}
}

// sweepFace returns the face that Exchange's sweep of dimension dim moves
// at side dir: the dimensions swept before it are ghost-inclusive.
func sweepFace(f *Field, dim, dir int, ghost bool) box {
	return f.face(dim, dir, ghost, [3]bool{dim > 0, dim > 1, false})
}

// packFace packs the interior face of a sweep into a buffer from the
// world's payload pool.
func (e *Exchanger) packFace(f *Field, dim, dir int) []float64 {
	b := sweepFace(f, dim, dir, false)
	return f.pack(e.Rank.GetBuf(b.size()), b)
}

// sweep exchanges both faces of one dimension. Low faces travel to the
// low neighbour (becoming its high ghosts) and vice versa.
func (e *Exchanger) sweep(f *Field, dim, pdim, rank int) {
	if pdim == 1 {
		// Periodic self-wrap: my own low face becomes my high ghost.
		low := e.packFace(f, dim, -1)
		high := e.packFace(f, dim, +1)
		f.unpack(sweepFace(f, dim, +1, true), low)
		f.unpack(sweepFace(f, dim, -1, true), high)
		e.Rank.FreeBuf(low)
		e.Rank.FreeBuf(high)
		return
	}
	lowNbr := e.Decomp.Neighbor(rank, dim, -1)
	highNbr := e.Decomp.Neighbor(rank, dim, +1)
	// Phase 1: send low face down, receive from high neighbour.
	e.shift(f, dim, -1, lowNbr, highNbr)
	// Phase 2: send high face up, receive from low neighbour.
	e.shift(f, dim, +1, highNbr, lowNbr)
}

// shift sends the face at side dir to dst and fills the opposite ghosts
// from src's face. The packed face is freshly pooled, so ownership passes
// to the receiver, which frees it once unpacked.
func (e *Exchanger) shift(f *Field, dim, dir, dst, src int) {
	t := e.nextTag()
	face := e.packFace(f, dim, dir)
	e.Rank.SendOwnedNominal(dst, t, face, e.nominal(len(face)))
	data := e.Rank.Recv(src, t)
	f.unpack(sweepFace(f, dim, -dir, true), data)
	e.Rank.FreeBuf(data)
}
