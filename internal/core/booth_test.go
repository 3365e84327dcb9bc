package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/iss"
	"repro/internal/march"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestBoothMultiplierReopensDeviation demonstrates the paper's outlook
// item: with a Booth (operand-dependent) multiplier, the static cycle
// prediction cannot know the operand values, so even the cache detail
// level deviates from the board — data-dependent instruction timing is
// exactly the accuracy limit the paper names as future work.
func TestBoothMultiplierReopensDeviation(t *testing.T) {
	w, _ := workload.ByName("subband") // multiply-heavy
	f := assemble(t, w.Source)

	devL3 := func(booth bool) float64 {
		d := march.Default()
		d.BoothMul = booth
		ref, err := iss.New(f, iss.Config{CycleAccurate: true, Desc: d})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		prog, err := core.Translate(f, core.Options{Level: core.Level3, Desc: d})
		if err != nil {
			t.Fatal(err)
		}
		sys := platform.New(prog)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		refC := ref.Stats().Cycles
		gen := sys.Stats().GeneratedCycles
		return 100 * float64(gen-refC) / float64(refC)
	}

	plain := math.Abs(devL3(false))
	booth := math.Abs(devL3(true))
	t.Logf("level-3 deviation: fixed multiplier %.2f%%, Booth multiplier %.2f%%", plain, booth)
	if plain > 1 {
		t.Errorf("fixed-latency multiplier should be nearly exact, got %.2f%%", plain)
	}
	if booth <= plain+0.5 {
		t.Errorf("Booth timing should reopen a visible deviation (%.2f%% vs %.2f%%)", booth, plain)
	}
}

// TestBoothModelConsistentAcrossSimulators: under the Booth model the
// reference simulator charges the operand-dependent multiplier cycles.
func TestBoothModelConsistentAcrossSimulators(t *testing.T) {
	w, _ := workload.ByName("fir")
	f := assemble(t, w.Source)
	d := march.Default()
	d.BoothMul = true
	ref, err := iss.New(f, iss.Config{CycleAccurate: true, Desc: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	// The Booth model costs cycles relative to the fixed model.
	plain, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	if ref.Stats().Cycles <= plain.Stats().Cycles {
		t.Errorf("booth run (%d cycles) should exceed fixed run (%d)", ref.Stats().Cycles, plain.Stats().Cycles)
	}
}

func TestBoothExtraFunction(t *testing.T) {
	cases := []struct {
		v    uint32
		want int64
	}{
		{0, 0}, {1, 0}, {15, 0},
		{16, 1}, {255, 1},
		{256, 2}, {4095, 2},
		{1 << 16, 4}, {1 << 24, 6},
		{0xFFFFFFFF, 0},         // -1: tiny magnitude
		{uint32(0x80000000), 7}, // large negative
	}
	for _, c := range cases {
		if got := march.BoothExtra(c.v); got != c.want {
			t.Errorf("BoothExtra(%#x) = %d, want %d", c.v, got, c.want)
		}
	}
}
