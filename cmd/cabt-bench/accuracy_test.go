package main

import "testing"

// TestMeasureAccuracyImproves runs the real accuracy measurement and
// requires the dynamic correction to beat the plain clock at both
// approximate levels — the property the accuracy table exists to
// witness — and pins the exact figures, so a change to platform.DynNow
// or to the accuracy program shows up here.
func TestMeasureAccuracyImproves(t *testing.T) {
	entries, err := measureAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]accuracyEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	for _, lv := range []int{1, 2} {
		plain, ok1 := byName[nameFor(lv, "plain")]
		corr, ok2 := byName[nameFor(lv, "dyncorr")]
		if !ok1 || !ok2 {
			t.Fatalf("missing accuracy series for L%d: %+v", lv, entries)
		}
		if plain.Interrupts == 0 || plain.Interrupts != corr.Interrupts {
			t.Fatalf("L%d interrupt counts: plain %d, dyncorr %d", lv, plain.Interrupts, corr.Interrupts)
		}
		if plain.MeanAbsErrInsts == 0 {
			t.Fatalf("L%d plain clock shows no drift — the accuracy program no longer exercises the correction", lv)
		}
		if corr.MeanAbsErrInsts >= plain.MeanAbsErrInsts {
			t.Errorf("L%d: dyncorr error %.2f >= plain %.2f", lv, corr.MeanAbsErrInsts, plain.MeanAbsErrInsts)
		}
		// The figures today's program and schedule (10 interrupts, at
		// 8 %..80 % of the shortest run) produce: 639 and 90 source
		// instructions of summed delivery error.
		if w := (accuracyEntry{plain.Name, 10, 63.9}); plain != w {
			t.Errorf("L%d plain = %+v, want %+v", lv, plain, w)
		}
		if w := (accuracyEntry{corr.Name, 10, 9}); corr != w {
			t.Errorf("L%d dyncorr = %+v, want %+v", lv, corr, w)
		}
	}
}

func nameFor(level int, mode string) string {
	return "irq-accuracy/L" + string(rune('0'+level)) + "/" + mode
}
