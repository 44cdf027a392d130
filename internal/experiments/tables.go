package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/pingpong"
	"repro/internal/runner"
	"repro/internal/stream"
)

// Table1Row is one machine's measured (simulated) architectural
// highlights, mirroring the paper's Table 1 columns.
type Table1Row struct {
	Name         string
	Network      string
	Topology     string
	TotalProcs   int
	ProcsPerNode int
	ClockGHz     float64
	PeakGFs      float64
	StreamGBs    float64 // measured via the EP-STREAM triad model
	StreamBF     float64
	MPILatencyUs float64 // measured via simulated ping-pong
	MPIBWGBs     float64 // measured via simulated pairwise exchange
}

// Table1 regenerates the architectural-highlights table by running the
// microbenchmarks on every platform model, one schedulable job per
// machine.
func Table1(ctx context.Context, opts Options) ([]Table1Row, error) {
	specs := machine.All()
	jobs := make([]runner.Job, len(specs))
	for i, spec := range specs {
		jobs[i] = runner.Job{
			Key: runner.Key("Table 1", spec),
			Run: func(ctx context.Context) (runner.Result, error) {
				st := stream.Measure(spec, 1<<20)
				pp, err := pingpong.Measure(ctx, spec)
				if err != nil {
					return runner.Result{}, fmt.Errorf("table1 %s: %w", spec.Name, err)
				}
				return runner.Result{
					Experiment: "Table 1", Machine: spec.Name,
					Extra: map[string]float64{
						"stream_gbs":     st.GBsPerProc,
						"stream_bf":      st.BytesPerFlopRatio,
						"mpi_latency_us": pp.LatencyUs,
						"mpi_bw_gbs":     pp.BandwidthGBs,
					},
				}, nil
			},
		}
	}
	results, err := opts.pool().Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(specs))
	for i, spec := range specs {
		rows[i] = Table1Row{
			Name:         spec.Name,
			Network:      spec.Network,
			Topology:     string(spec.Topology),
			TotalProcs:   spec.TotalProcs,
			ProcsPerNode: spec.ProcsPerNode,
			ClockGHz:     spec.ClockGHz,
			PeakGFs:      spec.PeakGFs,
			StreamGBs:    results[i].Extra["stream_gbs"],
			StreamBF:     results[i].Extra["stream_bf"],
			MPILatencyUs: results[i].Extra["mpi_latency_us"],
			MPIBWGBs:     results[i].Extra["mpi_bw_gbs"],
		}
	}
	return rows, nil
}

// RenderTable1 writes the table in the paper's layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	header(w, "Table 1. Architectural highlights of studied HEC platforms")
	fmt.Fprintf(w, "%-9s %-11s %-9s %7s %3s %6s %7s %8s %5s %8s %8s\n",
		"Name", "Network", "Topology", "P", "P/N", "Clock", "Peak", "Stream", "B/F", "MPI-Lat", "MPI-BW")
	fmt.Fprintf(w, "%-9s %-11s %-9s %7s %3s %6s %7s %8s %5s %8s %8s\n",
		"", "", "", "", "", "(GHz)", "(GF/s)", "(GB/s)", "", "(µs)", "(GB/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-11s %-9s %7d %3d %6.1f %7.1f %8.1f %5.2f %8.1f %8.2f\n",
			r.Name, r.Network, r.Topology, r.TotalProcs, r.ProcsPerNode,
			r.ClockGHz, r.PeakGFs, r.StreamGBs, r.StreamBF, r.MPILatencyUs, r.MPIBWGBs)
	}
	fmt.Fprintln(w)
}

// Table2 returns the application-overview rows, one per registered
// workload in registry (sorted) order.
func Table2() []apps.Meta {
	workloads := apps.Workloads()
	rows := make([]apps.Meta, len(workloads))
	for i, w := range workloads {
		rows[i] = w.Meta()
	}
	return rows
}

// RenderTable2 writes the application overview in the paper's layout.
func RenderTable2(w io.Writer) {
	header(w, "Table 2. Overview of scientific applications examined in our study")
	fmt.Fprintf(w, "%-12s %7s  %-18s %-38s %s\n", "Name", "Lines", "Discipline", "Methods", "Structure")
	for _, m := range Table2() {
		fmt.Fprintln(w, m.Row())
	}
	fmt.Fprintln(w)
}
