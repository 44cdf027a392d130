package simmpi

import (
	"math"
	"testing"
)

// TestFreeBufPoisonsOnPut verifies the poison-on-put hook: once enabled,
// a recycled buffer's full capacity is overwritten with PoisonValue the
// moment it is freed, so any use-after-free surfaces as recognisable
// NaNs instead of silent stale data.
func TestFreeBufPoisonsOnPut(t *testing.T) {
	prev := SetPoisonPutsForTest(true)
	defer SetPoisonPutsForTest(prev)
	want := math.Float64bits(PoisonValue)
	_, err := RunContext(t.Context(), testCfg(1), func(r *Rank) {
		buf := r.GetBuf(64)
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = float64(i)
		}
		r.FreeBuf(buf)
		for i, v := range buf {
			if math.Float64bits(v) != want {
				t.Errorf("buf[%d] = %x after free, want poison %x", i, math.Float64bits(v), want)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRetainedBufferNeverAliasedAcrossWorlds pins the pool's aliasing
// contract: only explicitly freed buffers are recycled, so a buffer a
// rank keeps past its world's end can never be handed to a later world
// and scribbled over.
func TestRetainedBufferNeverAliasedAcrossWorlds(t *testing.T) {
	const sentinel = 424242.0
	var retained []float64
	_, err := RunContext(t.Context(), testCfg(2), func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		buf := r.GetBuf(128)
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = sentinel
		}
		retained = buf // escapes the world without FreeBuf
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second world churning the same size class must never receive the
	// retained buffer.
	_, err = RunContext(t.Context(), testCfg(4), func(r *Rank) {
		for round := 0; round < 64; round++ {
			buf := r.GetBuf(128)
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = float64(r.ID()*1000 + round)
			}
			r.FreeBuf(buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range retained {
		if v != sentinel {
			t.Fatalf("retained[%d] = %g, want sentinel %g: pool aliased a live buffer", i, v, sentinel)
		}
	}
}
