// Command perfbench is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root).
//
//	bash bench/run.sh --workload hot.L2 --seed 1 --seconds 10 --trace 0
//
// One invocation measures one workload: it generates the workload's
// inputs from the seed, sets the workload up (several times, to report a
// median set-up time), runs timed rounds in a closed loop for the given
// number of seconds, checks every program's output against a Go
// reference and the reference ISS, and prints one JSON object as the
// last line of standard output. With --trace 1 it records spans around
// its calls into each layer of the repo and reports per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // tiny inputs, for the tests
	sz       sizes
	dir      string // scratch directory inside the checkout
	procs    int    // GOMAXPROCS, farm workers and HTTP clients
}

// roundResult is one timed round of a workload.
type roundResult struct {
	wall    time.Duration   // timed region of the round
	batches []time.Duration // submit→results time of each batch in it
	jobs    int             // simulation jobs completed (one program at one level)
	failed  int             // jobs failed, refused or wrong
	insts   int64           // source instructions simulated (reference ISS count)
	sim     simStats
}

// simStats are a round's simulated statistics. They are deterministic:
// every round of a run, and every run of a seed, must produce the same.
type simStats struct {
	digest               string // SHA-256 over outputs and cycle counts
	errCycles, refCycles int64  // Σ|generated − reference|, Σ reference
	c6xCycles            int64
}

// instance is one set-up workload.
type instance interface {
	round(tk *track) (roundResult, error)
	close() error
}

type workloadDef struct {
	name string
	// freshPerRound workloads are set up again before every round (the
	// round consumes the set-up: a cold cache, an empty store).
	freshPerRound bool
	minRounds     int
	// setup builds an instance and returns the host time that counts as
	// set-up (everything before the timed region).
	setup func(cfg *config, tk *track, ly *layers) (instance, time.Duration, error)
	// probe is the extra, traced-only pass that calls layers the timed
	// rounds only reach indirectly.
	probe func(cfg *config, tk *track, ly *layers, inst instance) error
}

var workloadDefs = []workloadDef{
	{name: "hot.L2", minRounds: 10, setup: setupHot(2), probe: probeHot},
	{name: "hot.L3", minRounds: 10, setup: setupHot(3), probe: probeHot},
	{name: "cold.translate", freshPerRound: true, minRounds: 5, setup: setupCold, probe: probeCold},
	{name: "soc.4c.seq", minRounds: 10, setup: setupSoC(false), probe: probeSoC},
	{name: "soc.4c.par", minRounds: 10, setup: setupSoC(true), probe: probeSoC},
	{name: "serve.mixed", freshPerRound: true, minRounds: 3, setup: setupServe, probe: probeServe},
}

// setupRepeats is how often a workload that keeps its set-up across
// rounds is set up, so that setup_s is a median and not one sample.
const setupRepeats = 3

func workloadByName(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// runResult is everything one invocation measured.
type runResult struct {
	rounds     []roundResult
	setups     []time.Duration
	traced     []roundResult // trace mode: the rounds run with spans on
	mismatches int           // rounds whose digest differs from the first
	tr         *tracer
	ly         *layers
}

// run measures one workload.
func run(cfg *config) (*runResult, error) {
	def := workloadByName(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &runResult{ly: newLayers()}
	if cfg.trace {
		res.tr = newTracer()
	}
	main := res.tr.track(0)

	var inst instance
	closeInst := func() error {
		if inst == nil {
			return nil
		}
		err := inst.close()
		inst = nil
		return err
	}
	defer closeInst() // error paths; the success path checks it below
	setup := func() error {
		if err := closeInst(); err != nil {
			return err
		}
		end := main.begin(layerBench, "setup", len(res.setups))
		var err error
		var wall time.Duration
		inst, wall, err = def.setup(cfg, main, res.ly)
		end()
		res.setups = append(res.setups, wall)
		return err
	}
	if !def.freshPerRound {
		for i := 0; i < setupRepeats; i++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		// One untimed round lets lazy set-up finish before timing.
		if _, err := inst.round(nil); err != nil {
			return nil, err
		}
	}

	// Timed rounds. A traced run interleaves rounds without and with
	// spans (off, on, on, off, …), so both see the same host conditions
	// and their difference is the tracing overhead. Plain alternation is
	// not enough: a round allocates a fixed amount, so the collector can
	// fall into every second round, and did on soc.4c.seq.
	var measured time.Duration
	for n := 0; n < def.minRounds || measured.Seconds() < cfg.seconds; n++ {
		if def.freshPerRound {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		tk, out := (*track)(nil), &res.rounds
		if cfg.trace && (n%4 == 1 || n%4 == 2) {
			tk, out = main, &res.traced
		}
		end := tk.begin(layerBench, "round", n)
		rr, err := inst.round(tk)
		end()
		if err != nil {
			return nil, err
		}
		measured += rr.wall
		*out = append(*out, rr)
	}
	if cfg.trace {
		end := main.begin(layerBench, "probe", 0)
		err := def.probe(cfg, main, res.ly, inst)
		end()
		if err != nil {
			return nil, err
		}
	}
	for _, rr := range append(res.rounds[1:len(res.rounds):len(res.rounds)], res.traced...) {
		if rr.sim.digest != res.rounds[0].sim.digest {
			res.mismatches++
		}
	}
	return res, closeInst()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the object printed as the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundRates returns, per round, the three throughput/latency figures.
func roundRates(rounds []roundResult) (minst, jobs, batchMS []float64) {
	for _, rr := range rounds {
		s := rr.wall.Seconds()
		minst = append(minst, float64(rr.insts)/s/1e6)
		jobs = append(jobs, float64(rr.jobs)/s)
		batchMS = append(batchMS, durationsMS(rr.batches)...)
	}
	return
}

func (res *runResult) setupSeconds() []float64 {
	out := make([]float64, len(res.setups))
	for i, d := range res.setups {
		out[i] = d.Seconds()
	}
	return out
}

func (res *runResult) output(cfg *config) output {
	out := output{Metrics: map[string]metric{}}
	all := append(append([]roundResult(nil), res.rounds...), res.traced...)
	for _, rr := range all {
		out.Attempted += rr.jobs
		out.Failed += rr.failed
	}
	out.Correct = out.Failed == 0 && res.mismatches == 0
	minst, jobs, batchMS := roundRates(res.rounds)
	if !cfg.trace {
		out.Metrics["src_minst_per_s"] = metric{median(minst), "Minst/s"}
		out.Metrics["jobs_per_s"] = metric{median(jobs), "1/s"}
		out.Metrics["batch_p50_ms"] = metric{median(batchMS), "ms"}
		out.Metrics["setup_s"] = metric{median(res.setupSeconds()), "s"}
		return out
	}
	ly := res.ly
	sim := res.rounds[0].sim
	if sim.refCycles > 0 {
		ly.set("cycle_err_pct", 100*float64(sim.errCycles)/float64(sim.refCycles))
	}
	ly.set("failed_share", float64(out.Failed)/float64(max(out.Attempted, 1)))
	ly.set("sim_digest", digestNumber(sim.digest))
	tminst, _, _ := roundRates(res.traced)
	if base := median(minst); base > 0 {
		// Slower when traced = positive overhead. Base: the untraced half.
		ly.set("trace_overhead_pct", 100*(base-median(tminst))/base)
	}
	_, attributed := res.tr.selfTimes()
	ly.set("trace.attributed_pct", attributed)
	ly.set("batch_p95_ms", percentile(batchMS, 95))
	if iss := ly.get("iss.minst_per_s"); iss > 0 {
		ly.set("speedup_vs_iss", ly.get("run.minst_per_s")/iss)
	}
	ly.hostStats()
	for _, m := range layerMetrics {
		out.Metrics[m.name] = metric{ly.get(m.name), m.unit}
	}
	return out
}

// report writes the human-readable result to w (standard error: the
// last line of standard output is reserved for the JSON object).
func (res *runResult) report(cfg *config, out output) {
	w := os.Stderr
	minst, jobs, batchMS := roundRates(res.rounds)
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d num_cpu=%d %s fs=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.procs, runtime.NumCPU(), runtime.Version(), fsType(cfg.dir))
	row := func(name, unit string, xs []float64) {
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-18s n=%-5d median %12.4f  q1 %12.4f  q3 %12.4f  %s\n", name, len(xs), median(xs), q1, q3, unit)
	}
	row("src_minst_per_s", "Minst/s per round", minst)
	row("jobs_per_s", "1/s per round", jobs)
	row("batch_p50_ms", "ms per batch", batchMS)
	row("setup_s", "s per set-up", res.setupSeconds())
	sim := res.rounds[0].sim
	fmt.Fprintf(w, "  sim_digest %s  cycle_err %d/%d  digest mismatches %d  attempted %d failed %d\n",
		sim.digest, sim.errCycles, sim.refCycles, res.mismatches, out.Attempted, out.Failed)
	if cfg.trace {
		res.tr.printSelfTimes(w)
		for _, m := range layerMetrics {
			fmt.Fprintf(w, "  %-32s %16.4f %s\n", m.name, out.Metrics[m.name].Value, m.unit)
		}
	}
}

func mainErr() error {
	cfg := &config{sz: fullSizes}
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to measure: hot.L2, hot.L3, cold.translate, soc.4c.seq, soc.4c.par, serve.mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed rounds")
	flag.IntVar(&trace, "trace", 0, "1 = record spans and report per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs (what the tests run); numbers mean nothing")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.jsonl b.jsonl (bounds from ./BENCHMARK.json)")
	out := flag.String("out", "", "append the result object, with workload/seed/trace added, to this JSON-lines file")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if cfg.smoke {
		cfg.sz = smokeSizes
	}
	cfg.trace = trace != 0
	cfg.procs = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(cfg.procs)

	// Everything the run writes stays under bench/out in the checkout.
	root, err := benchDir()
	if err != nil {
		return err
	}
	cfg.dir = filepath.Join(root, "out")
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}

	res, err := run(cfg)
	if err != nil {
		return err
	}
	o := res.output(cfg)
	res.report(cfg, o)
	if cfg.trace {
		if err := res.tr.writeChrome(filepath.Join(cfg.dir, "trace-"+cfg.workload+".json")); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := appendResult(*out, cfg, o); err != nil {
			return err
		}
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if runChildIfAsked() {
		return
	}
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
