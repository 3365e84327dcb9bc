package simfarm

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// Job is one simulation request: run one workload through the translator
// at one detail level under one microarchitecture configuration, and
// measure it against the cycle-accurate reference simulator.
type Job struct {
	// Workload is the program to simulate (assembly source plus the
	// expected debug-port output used for functional verification).
	Workload workload.Workload
	// Config optionally labels the microarchitecture configuration for
	// sweeps; it is carried through to the Result untouched.
	Config string
	// Options selects the translation detail level, the source-processor
	// description (nil = march.Default) and the ablation switches.
	Options core.Options
	// Tenant scopes every memo key of the job ("" is the root). It is
	// not serialized: the server and the worker set it from the request.
	Tenant string `json:"-"`
}

// Result is the outcome of one Job. The modeled quantities use exactly
// the formulas of repro.Measure, so a farm result is interchangeable
// with a direct measurement: CPI and MIPS follow the paper's Table 1 and
// Figure 5, DeviationPct follows Figure 6, Seconds follows Table 2.
type Result struct {
	// Index is the job's position in the submitted batch; Farm.Run
	// orders its result slice by it.
	Index  int        `json:"index"`
	Name   string     `json:"name"`
	Level  core.Level `json:"level"`
	Config string     `json:"config,omitempty"`

	// Reference ("TC10GP evaluation board") quantities.
	Instructions int64   `json:"instructions"`
	BoardCycles  int64   `json:"board_cycles"`
	BoardCPI     float64 `json:"board_cpi"`
	BoardMIPS    float64 `json:"board_mips"`
	BoardSeconds float64 `json:"board_seconds"`

	// Translated-run quantities.
	C6xCycles       int64   `json:"c6x_cycles"`
	GeneratedCycles int64   `json:"generated_cycles"`
	CPI             float64 `json:"cpi"`
	MIPS            float64 `json:"mips"`
	DeviationPct    float64 `json:"deviation_pct"`
	Seconds         float64 `json:"seconds"`

	// CacheHit reports whether translation was served from the
	// content-addressed cache.
	CacheHit bool `json:"cache_hit"`

	// Host wall-times. RefWallSeconds is the wall-time of the reference
	// ISS run for this program (recorded once; memoized runs repeat the
	// first measurement). SpeedupVsISS is the host-speed advantage of
	// the translated platform run over the reference ISS —
	// RefWallSeconds / RunWallSeconds.
	TranslateWallSeconds float64 `json:"translate_wall_seconds"`
	RunWallSeconds       float64 `json:"run_wall_seconds"`
	RefWallSeconds       float64 `json:"ref_wall_seconds"`
	SpeedupVsISS         float64 `json:"speedup_vs_iss"`

	// Err is the job failure, if any (functional mismatch, assembly or
	// translation error); Error is its string form for JSON consumers.
	Err   error  `json:"-"`
	Error string `json:"error,omitempty"`

	// counts is the job's share of the farm's counters.
	counts FarmStats
}

// Counts reports the job's share of the farm's cumulative counters: one
// job run, its failure, the reference run and translation-cache lookup
// it caused. Batch and tenant accounting sum it. It is not serialized
// with the result, so the distributed path carries it over the wire and
// restores it with SetCounts.
func (r *Result) Counts() FarmStats { return r.counts }

// SetCounts restores wire-transferred counts; see Counts.
func (r *Result) SetCounts(c FarmStats) { r.counts = c }

// BatchStats summarizes one Farm.Run batch.
type BatchStats struct {
	Jobs    int `json:"jobs"`
	Failed  int `json:"failed"`
	Workers int `json:"workers"`

	// Translation-cache traffic of this batch.
	CacheHits    int64   `json:"translation_cache_hits"`
	CacheMisses  int64   `json:"translation_cache_misses"`
	CacheHitRate float64 `json:"translation_cache_hit_rate"`

	// Totals across successful jobs.
	TotalC6xCycles       int64 `json:"total_c6x_cycles"`
	TotalGeneratedCycles int64 `json:"total_generated_cycles"`

	// Throughput: simulated platform cycles per host wall-second.
	WallSeconds        float64 `json:"wall_seconds"`
	C6xCyclesPerSecond float64 `json:"c6x_cycles_per_second"`
}

// FarmStats is the farm's cumulative view across every batch it has run.
type FarmStats struct {
	JobsRun        int64 `json:"jobs_run"`
	Failed         int64 `json:"failed"`
	CacheHits      int64 `json:"translation_cache_hits"`
	CacheMisses    int64 `json:"translation_cache_misses"`
	CachedPrograms int   `json:"cached_programs"`
	ReferenceRuns  int64 `json:"reference_runs"`

	// DiskCacheHits counts the cache hits served from the persistent
	// translation-cache store (a subset of CacheHits; 0 when the farm's
	// cache is memory-only).
	DiskCacheHits int64 `json:"disk_cache_hits"`
}

// Add sums o into s: the stats of the jobs of both.
func (s *FarmStats) Add(o FarmStats) {
	s.JobsRun += o.JobsRun
	s.Failed += o.Failed
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CachedPrograms += o.CachedPrograms
	s.ReferenceRuns += o.ReferenceRuns
	s.DiskCacheHits += o.DiskCacheHits
}

// lookup counts one translation-cache lookup served as o. Each key is
// first looked up exactly once, as a miss or a disk hit, so those two
// count the programs cached.
func (s *FarmStats) lookup(o outcome) {
	if o == translated {
		s.CacheMisses++
		s.CachedPrograms++
		return
	}
	s.CacheHits++
	if o == diskHit {
		s.DiskCacheHits++
		s.CachedPrograms++
	}
}

// Report is the JSON document cmd/cabt-farm emits for a sweep.
type Report struct {
	Workers int        `json:"workers"`
	Results []Result   `json:"results"`
	Stats   BatchStats `json:"stats"`
}
