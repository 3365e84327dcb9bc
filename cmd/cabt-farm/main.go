// Command cabt-farm runs batch simulation sweeps on the simulation
// farm: every workload × translation detail level × microarchitecture
// configuration, on a bounded worker pool, with translation memoized in
// a content-addressed cache. It emits a per-job summary table, the
// batch statistics (including the translation-cache hit rate), and
// optionally the full JSON report.
//
// With -cache-dir, the translation cache writes through to a persistent
// content-addressed store, so repeated sweeps (and concurrent cabt-serve
// instances pointed at the same directory) skip translation entirely on
// warm keys.
//
// Usage:
//
//	cabt-farm                     # full sweep, summary table
//	cabt-farm -workers 8 -json -  # full sweep, JSON report on stdout
//	cabt-farm -levels 1,3 -workloads gcd,sieve -json report.json
//	cabt-farm -cache-dir ~/.cache/cabt   # persistent translation cache
//	cabt-farm -table1 -table2     # the paper's tables, via the farm
//	cabt-farm -progress           # stream per-job lines as they finish
//	cabt-farm -interp             # interpreter engine (equivalence oracle)
//	cabt-farm -det -nofuse        # deterministic output, one packet per segment (CI byte-diff)
//	cabt-farm -trace-out trace.json   # Chrome trace of the pipeline stages
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/simfarm"
	"repro/internal/workload"
)

func main() {
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	levelsFlag := flag.String("levels", "0,1,2,3", "comma-separated detail levels to sweep")
	workloadsFlag := flag.String("workloads", "all", "comma-separated workload names, or 'all'")
	jsonOut := flag.String("json", "", "write the JSON report to this file ('-' = stdout)")
	progress := flag.Bool("progress", false, "stream one line per job as results complete")
	table1 := flag.Bool("table1", false, "also print the paper's Table 1 (produced through the farm)")
	table2 := flag.Bool("table2", false, "also print the paper's Table 2 (produced through the farm)")
	cacheDir := flag.String("cache-dir", "", "persistent translation-cache store directory (empty = in-memory only)")
	cacheBudget := flag.Int64("cache-budget", 0, "store size budget in bytes, LRU-evicted (0 = unbounded)")
	interp := flag.Bool("interp", false, "run translated programs on the packet interpreter instead of fused code")
	nofuse := flag.Bool("nofuse", false, "compile one packet per segment, folding nothing across packets (differential reference)")
	det := flag.Bool("det", false, "deterministic output: omit host wall-time figures (CI smoke)")
	traceOut := cliutil.RegisterTraceFlag()
	logFlags := cliutil.RegisterLogFlags()
	flag.Parse()
	check(logFlags.Setup("cabt-farm"))
	cliutil.StartTrace(*traceOut)

	levels, err := parseLevels(*levelsFlag)
	check(err)
	ws, err := parseWorkloads(*workloadsFlag)
	check(err)
	configs := simfarm.DefaultMarchConfigs()

	// Without -cache-dir, share the process-wide farm's translation cache
	// so -table1/-table2 (which run on repro's shared farm) reuse the
	// sweep's translations and vice versa. With it, back the sweep by the
	// persistent store so translations survive the process.
	diskCache, err := cliutil.OpenTranslationCache(*cacheDir, *cacheBudget)
	check(err)
	cache := repro.Farm().Cache()
	if diskCache != nil {
		cache = diskCache
	}
	farm := simfarm.New(simfarm.Config{Workers: *workers, Cache: cache, Engine: cliutil.Engine(*interp, *nofuse)})
	jobs := simfarm.SweepJobs(ws, levels, configs)
	slog.Info("sweep start", "jobs", len(jobs), "workloads", len(ws),
		"levels", len(levels), "configs", len(configs), "workers", farm.Workers())

	results, stats := run(farm, jobs, *progress)

	if *det {
		scrubWallTimes(results, &stats)
	}
	printSummary(os.Stdout, results, stats, *det)
	if cache.Persistent() && !*det {
		fmt.Fprintf(os.Stdout, "persistent store: %d of %d hits served from disk (%s)\n",
			cache.DiskHits(), stats.CacheHits, *cacheDir)
	}

	if *jsonOut != "" {
		workers := farm.Workers()
		if *det {
			workers = 0
		}
		report := simfarm.Report{Workers: workers, Results: results, Stats: stats}
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

	if *table1 {
		t, err := repro.MeasureTable1()
		check(err)
		fmt.Println(repro.FormatTable1(t))
	}
	if *table2 {
		rows, err := repro.MeasureTable2()
		check(err)
		fmt.Println(repro.FormatTable2(rows))
	}

	check(cliutil.WriteTrace(*traceOut))
	if stats.Failed > 0 {
		os.Exit(1)
	}
}

// run executes the batch; with progress enabled it consumes the
// streaming channel and echoes jobs as they complete, then reorders —
// otherwise it uses the blocking Run.
func run(farm *simfarm.Farm, jobs []simfarm.Job, progress bool) ([]simfarm.Result, simfarm.BatchStats) {
	if !progress {
		return farm.Run(jobs)
	}
	// Stream for the live progress lines, then reorder by index (Submit
	// sets Result.Index) and let the farm summarize the batch.
	start := time.Now()
	results := make([]simfarm.Result, len(jobs))
	done := 0
	for r := range farm.Submit(jobs) {
		done++
		status := "ok"
		if r.Err != nil {
			status = "FAIL: " + r.Error
		} else if r.CacheHit {
			status = "ok (cache hit)"
		}
		slog.Info("job done", "n", done, "of", len(jobs),
			"name", r.Name, "config", r.Config, "level", int(r.Level), "status", status)
		results[r.Index] = r
	}
	return results, simfarm.SummarizeResults(results, time.Since(start), farm.Workers())
}

// scrubWallTimes zeroes every host-dependent field so a -det report is
// byte-identical across runs and pool sizes: wall times, host speedups,
// the worker count, and the per-job cache_hit flags (which job wins the
// singleflight translation race — and so counts as the miss — depends
// on scheduling; the batch hit/miss totals stay deterministic and are
// kept).
func scrubWallTimes(results []simfarm.Result, stats *simfarm.BatchStats) {
	for i := range results {
		results[i].TranslateWallSeconds = 0
		results[i].RunWallSeconds = 0
		results[i].RefWallSeconds = 0
		results[i].SpeedupVsISS = 0
		results[i].CacheHit = false
	}
	stats.Workers = 0
	stats.WallSeconds = 0
	stats.C6xCyclesPerSecond = 0
}

func printSummary(w *os.File, results []simfarm.Result, stats simfarm.BatchStats, det bool) {
	fmt.Fprintf(w, "%-10s %-18s %-22s %10s %12s %12s %8s %9s %5s\n",
		"program", "config", "level", "insts", "c6x cycles", "gen cycles", "CPI", "dev%", "cache")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-10s %-18s %-22s FAILED: %s\n", r.Name, r.Config, r.Level, r.Error)
			continue
		}
		cache := "miss"
		if r.CacheHit {
			cache = "hit"
		}
		if det {
			cache = "-"
		}
		dev := "-"
		if r.Level >= core.Level1 {
			dev = fmt.Sprintf("%+.2f", r.DeviationPct)
		}
		fmt.Fprintf(w, "%-10s %-18s %-22s %10d %12d %12d %8.2f %9s %5s\n",
			r.Name, r.Config, r.Level, r.Instructions, r.C6xCycles, r.GeneratedCycles, r.CPI, dev, cache)
	}
	if det {
		fmt.Fprintf(w, "\njobs %d (failed %d) · translation cache %d hits / %d misses (%.0f%% hit rate)\n",
			stats.Jobs, stats.Failed, stats.CacheHits, stats.CacheMisses, 100*stats.CacheHitRate)
		return
	}
	fmt.Fprintf(w, "\njobs %d (failed %d) · translation cache %d hits / %d misses (%.0f%% hit rate) · %.2fs wall · %.1f Mcycles/s simulated\n",
		stats.Jobs, stats.Failed, stats.CacheHits, stats.CacheMisses, 100*stats.CacheHitRate,
		stats.WallSeconds, stats.C6xCyclesPerSecond/1e6)
}

func parseLevels(s string) ([]core.Level, error) {
	var levels []core.Level
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 3 {
			return nil, fmt.Errorf("bad level %q (want 0..3)", part)
		}
		levels = append(levels, core.Level(n))
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("no levels selected")
	}
	return levels, nil
}

func parseWorkloads(s string) ([]workload.Workload, error) {
	if s == "all" {
		return workload.All(), nil
	}
	var ws []workload.Workload
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workload.Names(), ", "))
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("no workloads selected")
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	return ws, nil
}

func check(err error) {
	if err != nil {
		slog.Error(err.Error())
		os.Exit(1)
	}
}
