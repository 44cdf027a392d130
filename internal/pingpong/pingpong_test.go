package pingpong

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/machine"
)

// TestLatencyReproducesTable1 checks the simulated ping-pong against the
// published "MPI Lat" column. The simulated one-way time includes send and
// receive software overheads, so a generous band is allowed; the ordering
// across machines is the scientifically meaningful output.
func TestLatencyReproducesTable1(t *testing.T) {
	want := map[string]float64{
		"Bassi": 4.7, "Jaguar": 5.5, "Jacquard": 5.2,
		"BG/L": 2.2, "BGW": 2.2, "Phoenix": 5.0,
	}
	got := make(map[string]float64)
	for _, m := range machine.All() {
		lat, err := Latency(t.Context(), m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		got[m.Name] = lat
		w := want[m.Name]
		if lat < w*0.8 || lat > w*2.0 {
			t.Errorf("%s: latency %.2f µs, Table 1 says %.1f", m.Name, lat, w)
		}
	}
	// BG/L must have the lowest latency, as in the paper.
	for name, lat := range got {
		if name != "BG/L" && name != "BGW" && lat <= got["BG/L"] {
			t.Errorf("%s latency %.2f not above BG/L's %.2f", name, lat, got["BG/L"])
		}
	}
}

// TestBandwidthReproducesTable1 checks the simultaneous pairwise exchange
// against the "MPI BW" column.
func TestBandwidthReproducesTable1(t *testing.T) {
	want := map[string]float64{
		"Bassi": 0.69, "Jaguar": 1.2, "Jacquard": 0.73,
		"BG/L": 0.16, "BGW": 0.16, "Phoenix": 2.9,
	}
	for _, m := range machine.All() {
		bw, err := Bandwidth(t.Context(), m, 16<<20)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		w := want[m.Name]
		if math.Abs(bw-w)/w > 0.25 {
			t.Errorf("%s: bandwidth %.2f GB/s, Table 1 says %.2f", m.Name, bw, w)
		}
	}
}

func TestBandwidthGrowsWithMessageSize(t *testing.T) {
	small, err := Bandwidth(t.Context(), machine.Jaguar, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Bandwidth(t.Context(), machine.Jaguar, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if small >= big {
		t.Errorf("small-message bandwidth %.3f not below large-message %.3f", small, big)
	}
}

func TestMeasure(t *testing.T) {
	res, err := Measure(t.Context(), machine.BGL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine != "BG/L" || res.LatencyUs <= 0 || res.BandwidthGBs <= 0 {
		t.Errorf("bad result: %+v", res)
	}
}

func TestMeasureCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	res, err := Measure(ctx, machine.BGL)
	if !errors.Is(err, context.Canceled) || res != (Result{}) {
		t.Fatalf("pre-cancelled Measure = %+v, %v; want no result and context.Canceled", res, err)
	}
}
