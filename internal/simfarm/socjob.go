package simfarm

import (
	"fmt"
	"time"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/workload"
)

// SoCCoreSpec is one core of a multi-core simulation job.
type SoCCoreSpec struct {
	// Workload is the core's program plus its expected debug output.
	Workload workload.Workload
	// UseISS runs the core on the reference ISS instead of the
	// translated platform.
	UseISS bool
	// Options are the translation options of a translated core. Each
	// core is translated through the farm's content-addressed cache
	// under its own (ELF, options) key, so heterogeneous per-core
	// configurations still share every translation they have in common —
	// across cores, jobs and batches.
	Options core.Options
}

// SoCJob is one multi-core SoC simulation request.
type SoCJob struct {
	// Name labels the job (usually the MultiWorkload name).
	Name string
	// Config optionally labels the sweep point; carried through.
	Config string

	Cores         []SoCCoreSpec
	Quantum       int64
	Arbitration   soc.Arbitration
	BusBusyCycles int64
	// Parallel runs the SoC on the speculative parallel scheduler
	// (bit-identical results; see soc.Config.Parallel).
	Parallel bool
	// Tenant namespaces the job's memo keys (see Job.Tenant).
	Tenant string `json:"-"`
}

// SoCCoreResult is one core's measurement within a SoCResult.
type SoCCoreResult struct {
	soc.CoreResult
	// CacheHit reports whether the core's translation came from the
	// content-addressed cache (always false for ISS cores).
	CacheHit bool `json:"cache_hit"`
	// Engine is the core's fused/interpreter split (host-side
	// observation: not serialized, so reports stay identical across
	// engines; zero for ISS cores and for results carried over the wire).
	Engine c6x.EngineStats `json:"-"`
}

// SoCResult is the outcome of one SoCJob.
type SoCResult struct {
	Index       int    `json:"index"`
	Name        string `json:"name"`
	Config      string `json:"config,omitempty"`
	CoreCount   int    `json:"core_count"`
	Quantum     int64  `json:"quantum"`
	Arbitration string `json:"arbitration"`

	PerCore []SoCCoreResult `json:"per_core"`

	// Aggregates over the SoC (see soc.Stats).
	Quanta            int64 `json:"quanta"`
	TotalInstructions int64 `json:"total_instructions"`
	TotalCycles       int64 `json:"total_cycles"`
	MakespanCycles    int64 `json:"makespan_cycles"`
	BusTransactions   int64 `json:"bus_transactions"`
	BusWaitCycles     int64 `json:"bus_wait_cycles"`

	// RunWallSeconds is the host wall-time of the SoC run (excluding
	// assembly and translation).
	RunWallSeconds float64 `json:"run_wall_seconds"`

	Err   error  `json:"-"`
	Error string `json:"error,omitempty"`

	counts FarmStats
}

// Counts is Result.Counts for a SoC job: one lookup per translated core.
func (r *SoCResult) Counts() FarmStats { return r.counts }

// SetCounts restores wire-transferred counts; see Counts.
func (r *SoCResult) SetCounts(c FarmStats) { r.counts = c }

// SoCBatchStats summarizes one RunSoC batch.
type SoCBatchStats struct {
	Jobs    int `json:"jobs"`
	Failed  int `json:"failed"`
	Workers int `json:"workers"`

	CacheHits    int64   `json:"translation_cache_hits"`
	CacheMisses  int64   `json:"translation_cache_misses"`
	CacheHitRate float64 `json:"translation_cache_hit_rate"`

	// TotalCycles is the aggregate simulated source cycles of the batch;
	// CyclesPerSecond is the batch throughput in simulated cycles per
	// host wall-second.
	TotalCycles     int64   `json:"total_cycles"`
	WallSeconds     float64 `json:"wall_seconds"`
	CyclesPerSecond float64 `json:"cycles_per_second"`
}

// SoCReport is the JSON document cmd/cabt-soc emits for a sweep.
type SoCReport struct {
	Workers int           `json:"workers"`
	Results []SoCResult   `json:"results"`
	Stats   SoCBatchStats `json:"stats"`
}

// RunSoC executes the multi-core batch and returns results in job order
// plus the batch summary. Job failures are per-result, never a batch
// failure.
func (f *Farm) RunSoC(jobs []SoCJob) ([]SoCResult, SoCBatchStats) {
	start := time.Now()
	results := make([]SoCResult, len(jobs))
	for r := range submitPool(f.workers, len(jobs), func(i int) SoCResult { return f.runSoCJob(i, jobs[i]) }) {
		results[r.Index] = r
	}
	return results, SummarizeSoCResults(results, time.Since(start), f.workers)
}

// SummarizeSoCResults computes SoC batch statistics for results gathered
// from any execution path (local farm or distributed workers), with
// workers the executor count to report; see SummarizeResults.
func SummarizeSoCResults(results []SoCResult, wall time.Duration, workers int) SoCBatchStats {
	bs := SoCBatchStats{Jobs: len(results), Workers: workers, WallSeconds: wall.Seconds()}
	for i := range results {
		r := &results[i]
		if r.Err != nil || r.Error != "" {
			bs.Failed++
		}
		bs.CacheHits += r.counts.CacheHits
		bs.CacheMisses += r.counts.CacheMisses
		bs.TotalCycles += r.TotalCycles
	}
	if t := bs.CacheHits + bs.CacheMisses; t > 0 {
		bs.CacheHitRate = float64(bs.CacheHits) / float64(t)
	}
	if bs.WallSeconds > 0 {
		bs.CyclesPerSecond = float64(bs.TotalCycles) / bs.WallSeconds
	}
	return bs
}

// runSoCJob executes one multi-core job: assemble every core (memoized),
// translate the translated cores through the content-addressed cache,
// assemble the SoC, run it, and verify every core's output.
func (f *Farm) runSoCJob(idx int, job SoCJob) SoCResult {
	f.all.jobsRun.Add(1)
	r := SoCResult{
		Index:       idx,
		Name:        job.Name,
		Config:      job.Config,
		CoreCount:   len(job.Cores),
		Quantum:     job.Quantum,
		Arbitration: job.Arbitration.String(),
		counts:      FarmStats{JobsRun: 1},
	}
	fail := func(err error) SoCResult {
		f.all.failed.Add(1)
		r.counts.Failed = 1
		r.Err = err
		r.Error = err.Error()
		return r
	}
	if len(job.Cores) == 0 {
		return fail(fmt.Errorf("%s: no cores", job.Name))
	}

	cfg := soc.Config{
		Quantum:       job.Quantum,
		Arbitration:   job.Arbitration,
		BusBusyCycles: job.BusBusyCycles,
		Engine:        f.engine,
		Parallel:      job.Parallel,
	}
	hits := make([]bool, len(job.Cores))
	for i, spec := range job.Cores {
		a := f.elf(job.Tenant, spec.Workload)
		if a.err != nil {
			return fail(a.err)
		}
		cc := soc.CoreConfig{Name: spec.Workload.Name, ELF: a.f, UseISS: spec.UseISS, Options: spec.Options}
		if !spec.UseISS {
			prog, o, err := f.cache.translate(job.Tenant, a.hash, a.f, spec.Options)
			r.counts.lookup(o)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", spec.Workload.Name, err))
			}
			cc.Prog = prog
			hits[i] = o != translated
		}
		cfg.Cores = append(cfg.Cores, cc)
	}

	sys, err := soc.New(cfg)
	if err != nil {
		return fail(err)
	}
	runStart := time.Now()
	if err := sys.Run(); err != nil {
		return fail(err)
	}
	r.RunWallSeconds = time.Since(runStart).Seconds()
	for i, spec := range job.Cores {
		if err := workload.SameOutput(sys.Output(i), spec.Workload.Expected); err != nil {
			return fail(fmt.Errorf("%s: %w", spec.Workload.Name, err))
		}
	}

	st := sys.Results()
	r.Quanta = st.Quanta
	r.TotalInstructions = st.TotalInstructions
	r.TotalCycles = st.TotalCycles
	r.MakespanCycles = st.MakespanCycles
	r.BusTransactions = st.BusTransactions
	r.BusWaitCycles = st.BusWaitCycles
	for i, cr := range st.Cores {
		r.PerCore = append(r.PerCore, SoCCoreResult{CoreResult: cr, CacheHit: hits[i], Engine: sys.EngineStats(i)})
	}
	return r
}

// SoCSweepJobs builds a sweep batch: the named multi-core workloads at
// every core count × quantum × arbitration policy, all cores translated
// under opts (or running the reference ISS when useISS is set), on the
// parallel scheduler when parallel is set. Workloads unavailable at a
// core count (mc-pingpong below 2 cores) are skipped. Jobs are in
// deterministic (workload, cores, quantum, policy) order.
func SoCSweepJobs(names []string, coreCounts []int, quanta []int64, arbs []soc.Arbitration, opts core.Options, useISS, parallel bool) ([]SoCJob, error) {
	var jobs []SoCJob
	for _, name := range names {
		for _, n := range coreCounts {
			known, available := workload.MCKnown(name, n)
			if !known {
				return nil, fmt.Errorf("unknown multi-core workload %q", name)
			}
			if !available {
				continue // valid workload, unavailable at this core count
			}
			mw, _ := workload.MCByName(name, n)
			for _, q := range quanta {
				for _, arb := range arbs {
					config := fmt.Sprintf("%dc-q%d-%s", n, q, arb)
					if parallel {
						config += "-par"
					}
					job := SoCJob{
						Name:        mw.Name,
						Config:      config,
						Quantum:     q,
						Arbitration: arb,
						Parallel:    parallel,
					}
					for _, w := range mw.Cores {
						job.Cores = append(job.Cores, SoCCoreSpec{Workload: w, UseISS: useISS, Options: opts})
					}
					jobs = append(jobs, job)
				}
			}
		}
	}
	return jobs, nil
}
