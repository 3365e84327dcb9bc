// Command cabt-bench regenerates every table and figure of the paper's
// evaluation section, plus the ablation studies of this reproduction.
// Results are printed next to the published values where the paper gives
// numbers. Throughput with repeated samples and spread is bench/'s job
// (bench/run.sh, -compare); -ablation also prints the interrupt-delivery
// accuracy table, which is deterministic.
//
// Usage:
//
//	cabt-bench -all
//	cabt-bench -fig5 -table1 -fig6 -table2 -ablation
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

func main() {
	all := flag.Bool("all", false, "run everything")
	fig5 := flag.Bool("fig5", false, "Figure 5: comparison of speed")
	table1 := flag.Bool("table1", false, "Table 1: cycles per instruction")
	fig6 := flag.Bool("fig6", false, "Figure 6: comparison of cycle accuracy")
	table2 := flag.Bool("table2", false, "Table 2: software runtime comparison")
	ablation := flag.Bool("ablation", false, "ablation studies")
	logFlags := cliutil.RegisterLogFlags()
	flag.Parse()
	check(logFlags.Setup("cabt-bench"))
	if *all {
		*fig5, *table1, *fig6, *table2, *ablation = true, true, true, true, true
	}
	if !*fig5 && !*table1 && !*fig6 && !*table2 && !*ablation {
		flag.Usage()
		os.Exit(2)
	}
	if *fig5 {
		rows, err := repro.Figure5()
		check(err)
		fmt.Println(repro.FormatFigure5(rows))
	}
	if *table1 {
		t, err := repro.MeasureTable1()
		check(err)
		fmt.Println(repro.FormatTable1(t))
	}
	if *fig6 {
		rows, err := repro.Figure6()
		check(err)
		fmt.Println(repro.FormatFigure6(rows))
	}
	if *table2 {
		rows, err := repro.MeasureTable2()
		check(err)
		fmt.Println(repro.FormatTable2(rows))
	}
	if *ablation {
		runAblations()
	}
}

func check(err error) {
	if err != nil {
		slog.Error(err.Error())
		os.Exit(1)
	}
}

// runAblations measures this reproduction's design choices: the
// correction-flush shape, the Level-3 cache probe, the cycle-generation
// rate, and the interrupt-delivery accuracy of the dynamic correction
// ("Superblocks and dynamic correction" in docs/architecture.md).
func runAblations() {
	fmt.Println("Ablation A — correction flush: Figure-3 two-wait vs ADD-register single drain")
	fmt.Printf("%-10s %16s %16s %8s\n", "program", "two-wait (cyc)", "single (cyc)", "saving")
	for _, w := range workload.Six() {
		f, err := tc32asm.Assemble(w.Source)
		check(err)
		run := func(single bool) int64 {
			prog, err := core.Translate(f, core.Options{Level: core.Level2, SingleDrainCorrection: single})
			check(err)
			sys := platform.New(prog)
			check(sys.Run())
			return sys.Stats().C6xCycles
		}
		two, one := run(false), run(true)
		fmt.Printf("%-10s %16d %16d %7.1f%%\n", w.Name, two, one, 100*float64(two-one)/float64(two))
	}
	fmt.Println()

	fmt.Println("Ablation D — level-3 cache probe: subroutine call vs inlined (Section 3.4.2)")
	fmt.Printf("%-10s %16s %16s %8s\n", "program", "call (cyc)", "inline (cyc)", "saving")
	for _, name := range []string{"ellip", "subband"} {
		w, _ := workload.ByName(name)
		f, err := tc32asm.Assemble(w.Source)
		check(err)
		run := func(inline bool) int64 {
			prog, err := core.Translate(f, core.Options{
				Level: core.Level3, InlineCacheProbe: inline, InlineCacheThreshold: 16,
			})
			check(err)
			sys := platform.New(prog)
			check(sys.Run())
			return sys.Stats().C6xCycles
		}
		call, inl := run(false), run(true)
		fmt.Printf("%-10s %16d %16d %7.1f%%\n", w.Name, call, inl, 100*float64(call-inl)/float64(call))
	}
	fmt.Println()

	fmt.Println("Ablation C — cycle-generation rate (C6x cycles per generated cycle)")
	fmt.Printf("%-10s %12s %12s %12s\n", "program", "ratio 1", "ratio 2", "ratio 4")
	for _, name := range []string{"gcd", "ellip"} {
		w, _ := workload.ByName(name)
		f, err := tc32asm.Assemble(w.Source)
		check(err)
		prog, err := core.Translate(f, core.Options{Level: core.Level2})
		check(err)
		fmt.Printf("%-10s", w.Name)
		for _, ratio := range []int64{1, 2, 4} {
			sys := platform.New(prog)
			sys.Sync.Ratio = ratio
			check(sys.Run())
			fmt.Printf(" %12d", sys.Stats().C6xCycles)
		}
		fmt.Println()
	}
	fmt.Println()

	fmt.Println("Ablation F — interrupt-delivery accuracy: plain vs dynamically corrected clock")
	fmt.Printf("%-24s %12s %24s\n", "series", "interrupts", "mean abs err (src insts)")
	acc, err := measureAccuracy()
	check(err)
	for _, a := range acc {
		fmt.Printf("%-24s %12d %24.2f\n", a.Name, a.Interrupts, a.MeanAbsErrInsts)
	}
}
