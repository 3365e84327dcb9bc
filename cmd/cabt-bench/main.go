// Command cabt-bench regenerates every table and figure of the paper's
// evaluation section, plus the ablation studies of this reproduction.
// Results are printed next to the published values where the paper gives
// numbers.
//
// -perf-json writes the machine-readable perf trajectory (per-benchmark
// ns/op, allocs/op, simulated-cycles/wall-second, and the Table-1
// compiled-vs-interpreted engine speedup); CI records it as
// BENCH_PR4.json so future changes can be diffed against it.
//
// Usage:
//
//	cabt-bench -all
//	cabt-bench -fig5 -table1 -fig6 -table2 -ablation
//	cabt-bench -perf-json BENCH_PR4.json [-perf-time 1s]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

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
	perfJSON := flag.String("perf-json", "", "write the machine-readable perf trajectory to this file ('-' = stdout)")
	perfTime := flag.Duration("perf-time", time.Second, "target measuring time per perf-trajectory benchmark")
	perfBaseline := flag.String("perf-baseline", "", "recorded perf trajectory to diff the fresh -perf-json run against (warn-only)")
	logFlags := cliutil.RegisterLogFlags()
	flag.Parse()
	check(logFlags.Setup("cabt-bench"))
	if *all {
		*fig5, *table1, *fig6, *table2, *ablation = true, true, true, true, true
	}
	if !*fig5 && !*table1 && !*fig6 && !*table2 && !*ablation && *perfJSON == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *perfBaseline != "" && *perfJSON == "" {
		check(fmt.Errorf("-perf-baseline needs a fresh measurement: pass -perf-json too"))
	}
	if *perfJSON != "" {
		report, err := writePerfJSON(*perfJSON, *perfTime)
		check(err)
		if *perfBaseline != "" {
			check(comparePerfBaseline(report, *perfBaseline))
		}
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

// runAblations measures the design choices DESIGN.md calls out.
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

	fmt.Println("Ablation E — C6x host-execution engine: packet interpreter vs threaded code")
	fmt.Printf("%-10s %18s %18s %12s\n", "program", "interp (Mcyc/s)", "compiled", "speedup")
	for _, name := range []string{"sieve", "ellip"} {
		w, _ := workload.ByName(name)
		f, err := tc32asm.Assemble(w.Source)
		check(err)
		prog, err := core.Translate(f, core.Options{Level: core.Level2})
		check(err)
		run := func(engine platform.Engine) float64 {
			var best float64
			for i := 0; i < 3; i++ {
				sys := platform.NewWithEngine(prog, engine)
				t0 := time.Now()
				check(sys.Run())
				if r := float64(sys.Stats().C6xCycles) / time.Since(t0).Seconds() / 1e6; r > best {
					best = r
				}
			}
			return best
		}
		im, cm := run(platform.EngineInterp), run(platform.EngineCompiled)
		fmt.Printf("%-10s %18.1f %18.1f %11.2fx\n", w.Name, im, cm, cm/im)
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
}
