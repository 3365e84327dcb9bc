package workload

import (
	"testing"

	"repro/internal/iss"
	"repro/internal/tc32asm"
)

// runRef assembles and runs a workload on the reference simulator.
func runRef(t *testing.T, w Workload, accurate bool) *iss.Sim {
	t.Helper()
	f, err := tc32asm.Assemble(w.Source)
	if err != nil {
		t.Fatalf("%s: assemble: %v", w.Name, err)
	}
	s, err := iss.New(f, iss.Config{CycleAccurate: accurate})
	if err != nil {
		t.Fatalf("%s: new sim: %v", w.Name, err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	return s
}

func TestAllWorkloadsProduceExpectedOutput(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s := runRef(t, w, false)
			got := s.Output()
			if len(got) != len(w.Expected) {
				t.Fatalf("output %v, want %v", got, w.Expected)
			}
			for i := range got {
				if got[i] != w.Expected[i] {
					t.Errorf("out[%d] = %#x (%d), want %#x (%d)",
						i, got[i], int32(got[i]), w.Expected[i], int32(w.Expected[i]))
				}
			}
		})
	}
}

func TestCycleAccurateRunsMatchFunctionalResults(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			fast := runRef(t, w, false)
			slow := runRef(t, w, true)
			if fast.Arch.Retired != slow.Arch.Retired {
				t.Errorf("retired differs: %d vs %d", fast.Arch.Retired, slow.Arch.Retired)
			}
			fo, so := fast.Output(), slow.Output()
			if len(fo) != len(so) {
				t.Fatalf("output length differs")
			}
			for i := range fo {
				if fo[i] != so[i] {
					t.Errorf("out[%d] differs: %#x vs %#x", i, fo[i], so[i])
				}
			}
			st := slow.Stats()
			if st.Cycles < st.Retired/2 {
				t.Errorf("cycles %d implausibly low for %d instructions", st.Cycles, st.Retired)
			}
		})
	}
}

func TestInstructionCountsNearPaper(t *testing.T) {
	// Table 2 of the paper reports executed instruction counts for gcd,
	// fibonacci and sieve. Our workloads are tuned to land within 15% so
	// the runtime comparison is meaningful.
	for _, w := range All() {
		if w.PaperInstructions == 0 {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s := runRef(t, w, false)
			got := s.Arch.Retired
			lo := w.PaperInstructions * 85 / 100
			hi := w.PaperInstructions * 115 / 100
			if got < lo || got > hi {
				t.Errorf("retired %d instructions, want within 15%% of %d", got, w.PaperInstructions)
			}
			t.Logf("%s: %d instructions (paper: %d)", w.Name, got, w.PaperInstructions)
		})
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"gcd", "dpcm", "fir", "ellip", "sieve", "subband", "fibonacci"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("workload %s missing", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
	if len(Six()) != 6 {
		t.Errorf("Six() returned %d workloads", len(Six()))
	}
	if len(Names()) != 7 {
		t.Errorf("Names() returned %d", len(Names()))
	}
}

func TestWorkloadsHaveDistinctBlockProfiles(t *testing.T) {
	// ellip and subband must have larger average basic blocks than gcd
	// and sieve — this is the property driving Figure 5's shape.
	avgBlock := func(w Workload) float64 {
		s := runRef(t, w, true)
		st := s.Stats()
		branches := st.CondBranches
		if branches == 0 {
			return float64(st.Retired)
		}
		return float64(st.Retired) / float64(branches)
	}
	gcd, _ := ByName("gcd")
	sieve, _ := ByName("sieve")
	ellip, _ := ByName("ellip")
	subband, _ := ByName("subband")
	small := (avgBlock(gcd) + avgBlock(sieve)) / 2
	large := (avgBlock(ellip) + avgBlock(subband)) / 2
	if large < 3*small {
		t.Errorf("large-block workloads (%.1f) not clearly larger than small-block (%.1f)", large, small)
	}
}

// TestLookupBuildsNothing: the built-in workloads are built once, so a
// lookup (one per submitted job spec in the HTTP service) allocates
// nothing, and All hands out a slice the caller may reorder freely.
func TestLookupBuildsNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ByName("subband") }); n != 0 {
		t.Fatalf("ByName allocates %v times per call, want 0", n)
	}
	a := All()
	a[0], a[1] = a[1], a[0]
	if All()[0].Name != "gcd" {
		t.Fatal("reordering All's result changed the table")
	}
}
