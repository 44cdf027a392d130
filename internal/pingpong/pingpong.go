// Package pingpong implements the MPI latency and bandwidth
// microbenchmarks behind Table 1's "MPI Lat" and "MPI BW" columns: an
// inter-node ping-pong for latency, and a simultaneous pairwise exchange
// (every processor of one node exchanging with a distinct processor of
// another node) for per-processor bidirectional bandwidth.
package pingpong

import (
	"context"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

// Result holds the measured (simulated) MPI microbenchmark values.
type Result struct {
	Machine string
	// LatencyUs is the one-way inter-node small-message latency in µs.
	LatencyUs float64
	// BandwidthGBs is the sustained per-processor exchange bandwidth.
	BandwidthGBs float64
}

// latencyIters is the number of round trips averaged for latency.
const latencyIters = 100

// Latency measures one-way inter-node latency between ranks 0 and ppn
// (guaranteed to be on different nodes) with zero-byte payloads.
func Latency(ctx context.Context, spec machine.Spec) (float64, error) {
	procs := 2 * spec.ProcsPerNode
	if procs > spec.TotalProcs {
		procs = spec.TotalProcs
	}
	partner := spec.ProcsPerNode
	rep, err := simmpi.RunContext(ctx, simmpi.Config{Machine: spec, Procs: procs}, func(r *simmpi.Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < latencyIters; i++ {
				r.SendNominal(partner, 0, nil, 0)
				r.Recv(partner, 1)
			}
		case partner:
			for i := 0; i < latencyIters; i++ {
				r.Recv(0, 0)
				r.SendNominal(0, 1, nil, 0)
			}
		}
	})
	if err != nil {
		return 0, err
	}
	// Wall covers latencyIters round trips; one-way latency is half a
	// round trip.
	return rep.Wall / latencyIters / 2 * 1e6, nil
}

// Bandwidth measures the per-processor bidirectional exchange bandwidth:
// each rank of node 0 exchanges msgBytes with its counterpart on node 1,
// all pairs simultaneously.
func Bandwidth(ctx context.Context, spec machine.Spec, msgBytes float64) (float64, error) {
	ppn := spec.ProcsPerNode
	procs := 2 * ppn
	if procs > spec.TotalProcs {
		procs = spec.TotalProcs
	}
	const iters = 10
	rep, err := simmpi.RunContext(ctx, simmpi.Config{Machine: spec, Procs: procs}, func(r *simmpi.Rank) {
		var partner int
		if r.ID() < ppn {
			partner = r.ID() + ppn
		} else {
			partner = r.ID() - ppn
		}
		for i := 0; i < iters; i++ {
			r.SendNominal(partner, i, nil, msgBytes)
			r.Recv(partner, i)
		}
	})
	if err != nil {
		return 0, err
	}
	// Each rank moved msgBytes out and msgBytes in per iteration;
	// bidirectional exchange bandwidth counts the outbound volume against
	// the elapsed time of the overlapped exchange.
	total := msgBytes * iters
	return total / rep.Wall / 1e9, nil
}

// Measure runs both microbenchmarks for a machine.
func Measure(ctx context.Context, spec machine.Spec) (Result, error) {
	lat, err := Latency(ctx, spec)
	if err != nil {
		return Result{}, err
	}
	bw, err := Bandwidth(ctx, spec, 4<<20)
	if err != nil {
		return Result{}, err
	}
	return Result{Machine: spec.Name, LatencyUs: lat, BandwidthGBs: bw}, nil
}
