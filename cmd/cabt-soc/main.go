// Command cabt-soc runs multi-core SoC simulation sweeps on the
// simulation farm: every multi-core workload at every core count ×
// scheduling quantum × bus-arbitration policy, with every core's
// translation served from the content-addressed cache. It reports
// per-core CPI and bus contention per job plus the aggregate
// simulated-cycles-per-wall-second throughput of the batch.
//
// Usage:
//
//	cabt-soc                                  # default sweep, summary table
//	cabt-soc -workloads mc-pingpong -cores 4 -quanta 1,64 -arb rr,fixed
//	cabt-soc -level 3 -workers 8 -json -      # full JSON report on stdout
//	cabt-soc -iss                             # reference-ISS cores (oracle)
//	cabt-soc -interp                          # interpreter engine (oracle)
//	cabt-soc -parallel                        # speculative parallel scheduler
//	                                            (bit-identical to sequential)
//	cabt-soc -cache-dir ~/.cache/cabt         # persistent translation store
//	cabt-soc -det                             # suppress host-timing output
//	                                            (bit-identical across runs)
//	cabt-soc -trace-out trace.json            # Chrome trace_event dump of the
//	                                            run (quanta, IRQs, bus, spec)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"repro/internal/c6x"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/simfarm"
	"repro/internal/soc"
	"repro/internal/workload"
)

func main() {
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	workloadsFlag := flag.String("workloads", "all", "comma-separated multi-core workload names, or 'all'")
	irqOnly := flag.Bool("irq", false, "sweep only the interrupt-driven workloads (mc-irq-*)")
	coresFlag := flag.String("cores", "1,2,4", "comma-separated core counts to sweep")
	quantaFlag := flag.String("quanta", "1,16,64", "comma-separated scheduling quanta (source cycles)")
	arbFlag := flag.String("arb", "rr", "comma-separated arbitration policies (rr, fixed)")
	level := flag.Int("level", 2, "translation detail level of every core (0..3)")
	useISS := flag.Bool("iss", false, "run every core on the reference ISS instead of the translated platform")
	jsonOut := flag.String("json", "", "write the JSON report to this file ('-' = stdout)")
	det := flag.Bool("det", false, "deterministic output: omit host wall-time figures (CI smoke)")
	parallel := flag.Bool("parallel", false, "run each SoC on the speculative parallel scheduler (bit-identical results)")
	interp := flag.Bool("interp", false, "run translated cores on the packet interpreter instead of fused code")
	nofuse := flag.Bool("nofuse", false, "compile one packet per segment, folding nothing across packets (differential reference)")
	cacheDir := flag.String("cache-dir", "", "persistent translation-cache store directory (empty = in-memory only)")
	cacheBudget := flag.Int64("cache-budget", 0, "store size budget in bytes, LRU-evicted (0 = unbounded)")
	traceOut := cliutil.RegisterTraceFlag()
	logFlags := cliutil.RegisterLogFlags()
	flag.Parse()
	check(logFlags.Setup("cabt-soc"))
	cliutil.StartTrace(*traceOut)

	names, err := parseNames(*workloadsFlag)
	check(err)
	if *irqOnly {
		// Filter the selection (explicit or 'all') down to the
		// interrupt-driven set.
		kept := names[:0]
		for _, n := range names {
			if strings.HasPrefix(n, "mc-irq-") {
				kept = append(kept, n)
			}
		}
		if len(kept) == 0 {
			check(fmt.Errorf("-irq selected, but none of the requested workloads (%s) are interrupt-driven", strings.Join(names, ", ")))
		}
		names = kept
	}
	coreCounts, err := parseInts(*coresFlag, "core count", 1, 64)
	check(err)
	quanta, err := parseInts64(*quantaFlag, "quantum", 1, 1<<20)
	check(err)
	arbs, err := parseArbs(*arbFlag)
	check(err)
	if *level < 0 || *level > 3 {
		check(fmt.Errorf("bad level %d (want 0..3)", *level))
	}

	opts := core.Options{Level: core.Level(*level)}
	jobs, err := simfarm.SoCSweepJobs(names, coreCounts, quanta, arbs, opts, *useISS, *parallel)
	check(err)
	if len(jobs) == 0 {
		check(fmt.Errorf("empty sweep"))
	}

	// Like cabt-farm, -cache-dir backs the translation cache with the
	// persistent content-addressed store, so SoC sweeps share every
	// translation with previous runs (and with cabt-farm / cabt-serve
	// processes pointed at the same directory).
	cache, err := cliutil.OpenTranslationCache(*cacheDir, *cacheBudget)
	check(err)
	farm := simfarm.New(simfarm.Config{Workers: *workers, Cache: cache, Engine: cliutil.Engine(*interp, *nofuse)})
	slog.Info("sweep start", "jobs", len(jobs), "workloads", len(names),
		"cores", fmt.Sprint(coreCounts), "quanta", fmt.Sprint(quanta),
		"policies", len(arbs), "workers", farm.Workers())

	results, stats := farm.RunSoC(jobs)
	printSummary(os.Stdout, results, stats, *det)
	if cache != nil && cache.Persistent() && !*det {
		fmt.Fprintf(os.Stdout, "persistent store: %d of %d hits served from disk (%s)\n",
			cache.DiskHits(), stats.CacheHits, *cacheDir)
	}

	if *jsonOut != "" {
		report := simfarm.SoCReport{Workers: farm.Workers(), Results: results, Stats: stats}
		if *det {
			scrubWallTimes(&report)
		}
		data, err := json.MarshalIndent(report, "", "  ")
		check(err)
		data = append(data, '\n')
		if *jsonOut == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		check(err)
	}

	check(cliutil.WriteTrace(*traceOut))
	if stats.Failed > 0 {
		os.Exit(1)
	}
}

// scrubWallTimes zeroes every host-dependent field so a -det JSON
// report is byte-identical across runs and pool sizes, like the -det
// summary table: wall times, the worker count, and the per-core
// cache_hit flags (which translation wins the singleflight race — and
// so counts as the miss — depends on scheduling; the batch totals stay
// deterministic and are kept).
func scrubWallTimes(r *simfarm.SoCReport) {
	r.Workers = 0
	r.Stats.Workers = 0
	for i := range r.Results {
		r.Results[i].RunWallSeconds = 0
		for c := range r.Results[i].PerCore {
			r.Results[i].PerCore[c].CacheHit = false
		}
	}
	r.Stats.WallSeconds = 0
	r.Stats.CyclesPerSecond = 0
}

func printSummary(w *os.File, results []simfarm.SoCResult, stats simfarm.SoCBatchStats, det bool) {
	fmt.Fprintf(w, "%-16s %-16s %8s %10s %12s %12s %10s %6s  %s\n",
		"program", "config", "quanta", "insts", "cycles", "makespan", "bus-wait", "irqs", "per-core CPI")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-16s %-16s FAILED: %s\n", r.Name, r.Config, r.Error)
			continue
		}
		var cpis []string
		var irqs int64
		for _, c := range r.PerCore {
			cpis = append(cpis, fmt.Sprintf("%.2f", c.CPI))
			irqs += c.IRQsTaken
		}
		fmt.Fprintf(w, "%-16s %-16s %8d %10d %12d %12d %10d %6d  %s\n",
			r.Name, r.Config, r.Quanta, r.TotalInstructions, r.TotalCycles,
			r.MakespanCycles, r.BusWaitCycles, irqs, strings.Join(cpis, "/"))
		if !det {
			printEngine(w, r)
		}
	}
	fmt.Fprintf(w, "\njobs %d (failed %d) · translation cache %d hits / %d misses\n",
		stats.Jobs, stats.Failed, stats.CacheHits, stats.CacheMisses)
	if !det {
		fmt.Fprintf(w, "%.2fs wall · %.2f Msimcycles/s aggregate\n",
			stats.WallSeconds, stats.CyclesPerSecond/1e6)
	}
}

// printEngine adds a job's fused/interpreter split to the summary:
// totals over its translated cores, and each core's share of packets
// retired by the interpreter. Left out of -det output — the split is
// what differs between the engines the CI byte-diffs compare.
func printEngine(w *os.File, r simfarm.SoCResult) {
	var sum c6x.EngineStats
	var shares []string
	for _, c := range r.PerCore {
		if c.Kind != soc.KindTranslated {
			continue
		}
		sum.EntriesClean += c.Engine.EntriesClean
		sum.EntriesMatched += c.Engine.EntriesMatched
		sum.HookStops += c.Engine.HookStops
		for cause, n := range c.Engine.DeoptsBy {
			sum.DeoptsBy[cause] += n
		}
		sum.IntrinsicRuns += c.Engine.IntrinsicRuns
		for o, n := range c.Engine.IntrinsicSites {
			sum.IntrinsicSites[o] += n
		}
		sum.BoundSites += c.Engine.BoundSites
		sum.DeviceFallbacks += c.Engine.DeviceFallbacks
		shares = append(shares, fmt.Sprintf("%.1f", 100*c.Engine.GenericShare()))
	}
	if len(shares) == 0 {
		return
	}
	fmt.Fprintf(w, "  engine: fused entries %d clean + %d matched · hook stops %d · deopts %d (%s) · intrinsic sites %s, %d calls · bound sync sites %d, %d fallbacks · generic packets %s %%\n",
		sum.EntriesClean, sum.EntriesMatched, sum.HookStops, sum.Deopts(), sum.DeoptSummary(), sum.IntrinsicSummary(), sum.IntrinsicRuns, sum.BoundSites, sum.DeviceFallbacks, strings.Join(shares, "/"))
}

func parseNames(s string) ([]string, error) {
	if s == "all" {
		return workload.MCNames(), nil
	}
	var names []string
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if known, _ := workload.MCKnown(n, 1); !known {
			return nil, fmt.Errorf("unknown multi-core workload %q (have %s)", n, strings.Join(workload.MCNames(), ", "))
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no workloads selected")
	}
	return names, nil
}

func parseInts(s, what string, min, max int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < min || n > max {
			return nil, fmt.Errorf("bad %s %q (want %d..%d)", what, part, min, max)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %ss selected", what)
	}
	return out, nil
}

func parseInts64(s, what string, min, max int64) ([]int64, error) {
	ints, err := parseInts(s, what, int(min), int(max))
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(ints))
	for i, n := range ints {
		out[i] = int64(n)
	}
	return out, nil
}

func parseArbs(s string) ([]soc.Arbitration, error) {
	var out []soc.Arbitration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		a, ok := soc.ArbitrationByName(part)
		if !ok {
			return nil, fmt.Errorf("bad arbitration %q (want rr or fixed)", part)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no arbitration policies selected")
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		slog.Error(err.Error())
		os.Exit(1)
	}
}
