package simfarm

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// Config configures a Farm.
type Config struct {
	// Workers bounds the worker pool; 0 selects GOMAXPROCS.
	Workers int
	// Cache is the translation cache to use; nil allocates a private
	// one. Passing a shared cache lets several farms (or a farm and a
	// benchmark harness) pool translated programs.
	Cache *TranslationCache
	// Engine selects the C6x host-execution engine of every translated
	// run in the farm, single-core and SoC alike (the zero value is
	// platform.EngineCompiled; the -interp flags select EngineInterp).
	// It does not key the translation cache: the engine changes how a
	// program executes, never what was translated.
	Engine platform.Engine
}

// Farm runs simulation jobs on a bounded worker pool, memoizing
// assembly, reference runs and translation across jobs and batches.
// Each job's Tenant scopes every memo key (see tenantKey), so one farm
// serves many tenants; each Result's Counts is that job's share of the
// farm's counters, for whoever keeps a tally per tenant.
type Farm struct {
	workers int
	cache   *TranslationCache
	engine  platform.Engine

	elfs memo[Key, assembled] // keyed on source-text hash (see elf)
	refs memo[Key, refRun]

	all tally // jobsRun, failed and refRuns only
}

type assembled struct {
	f    *elf32.File
	hash ELFHash
	err  error
}

type refRun struct {
	stats  iss.Stats
	output []uint32
	wall   time.Duration
	err    error
}

// tally is FarmStats for concurrent writers.
type tally struct {
	jobsRun, failed, refRuns atomic.Int64
	hits, misses, diskHits   atomic.Int64
}

func (t *tally) count(o outcome) {
	if o == translated {
		t.misses.Add(1)
		return
	}
	t.hits.Add(1)
	if o == diskHit {
		t.diskHits.Add(1)
	}
}

// New builds a farm.
func New(cfg Config) *Farm {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	c := cfg.Cache
	if c == nil {
		c = NewTranslationCache()
	}
	return &Farm{workers: w, cache: c, engine: cfg.Engine}
}

// Workers returns the configured pool size.
func (f *Farm) Workers() int { return f.workers }

// Cache returns the farm's translation cache.
func (f *Farm) Cache() *TranslationCache { return f.cache }

// stats renders a tally. Each key was first looked up exactly once, as
// a miss or a disk hit, so those two count the programs cached.
func (t *tally) stats() FarmStats {
	return FarmStats{
		JobsRun: t.jobsRun.Load(), Failed: t.failed.Load(), ReferenceRuns: t.refRuns.Load(),
		CacheHits: t.hits.Load(), CacheMisses: t.misses.Load(), DiskCacheHits: t.diskHits.Load(),
		CachedPrograms: int(t.misses.Load() + t.diskHits.Load()),
	}
}

// Stats returns the farm's cumulative counters across all batches and
// tenants; the cache figures are the whole translation cache's.
func (f *Farm) Stats() FarmStats {
	fs := f.cache.lookups.stats()
	fs.JobsRun, fs.Failed, fs.ReferenceRuns = f.all.jobsRun.Load(), f.all.failed.Load(), f.all.refRuns.Load()
	return fs
}

// submitPool streams run(i) for every i in [0, n) through a bounded
// worker pool: results arrive on the returned channel in completion
// order, buffered for the whole batch and closed when it is done, so
// consumers may read lazily without stalling workers. Shared by Submit
// and RunSoC.
func submitPool[R any](workers, n int, run func(i int) R) <-chan R {
	out := make(chan R, n)
	idx := make(chan int)
	w := workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out <- run(i)
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Submit runs the batch on the worker pool and streams each Result on
// the returned channel as it completes (completion order, Index set).
// The channel is buffered for the whole batch and closed when the batch
// is done, so consumers may read lazily without stalling workers.
func (f *Farm) Submit(jobs []Job) <-chan Result {
	return submitPool(f.workers, len(jobs), func(i int) Result {
		return f.runJob(i, jobs[i])
	})
}

// Run executes the batch and returns the results in job order (result i
// belongs to jobs[i], regardless of completion order) together with the
// batch summary. Job failures are reported per Result, never as a batch
// failure.
func (f *Farm) Run(jobs []Job) ([]Result, BatchStats) {
	start := time.Now()
	results := make([]Result, len(jobs))
	for r := range f.Submit(jobs) {
		results[r.Index] = r
	}
	return results, SummarizeResults(results, time.Since(start), f.workers)
}

// SummarizeResults computes batch statistics for results gathered from
// any execution path — a local Farm batch or results collected from
// remote workers (internal/simfarm/dist), where workers is the executor
// count to report. Failures are recognized by Err or its wire form Error,
// so results that crossed a JSON boundary (which drops Err) still count.
func SummarizeResults(results []Result, wall time.Duration, workers int) BatchStats {
	bs := BatchStats{Jobs: len(results), Workers: workers, WallSeconds: wall.Seconds()}
	for i := range results {
		r := &results[i]
		if r.Err != nil || r.Error != "" {
			bs.Failed++
		}
		bs.CacheHits += r.counts.CacheHits
		bs.CacheMisses += r.counts.CacheMisses
		bs.TotalC6xCycles += r.C6xCycles
		bs.TotalGeneratedCycles += r.GeneratedCycles
	}
	if t := bs.CacheHits + bs.CacheMisses; t > 0 {
		bs.CacheHitRate = float64(bs.CacheHits) / float64(t)
	}
	if bs.WallSeconds > 0 {
		bs.C6xCyclesPerSecond = float64(bs.TotalC6xCycles) / bs.WallSeconds
	}
	return bs
}

// elf assembles a workload for tenant, memoized on the hash of its
// source text.
func (f *Farm) elf(tenant string, w workload.Workload) assembled {
	a, _ := f.elfs.get(tenantKey(tenant, sha256.Sum256([]byte(w.Source))), func() assembled {
		file, err := tc32asm.Assemble(w.Source)
		if err != nil {
			return assembled{err: fmt.Errorf("%s: %w", w.Name, err)}
		}
		h, err := HashELF(file)
		return assembled{f: file, hash: h, err: err}
	})
	return a
}

// reference runs the cycle-accurate reference simulator for tenant,
// memoized on (ELF contents, full microarchitecture description); ran
// reports whether this call ran it. The wall-time of the first (actual)
// run is recorded and repeated for memoized hits, so every job reports
// a meaningful ISS-speed baseline.
func (f *Farm) reference(tenant string, a assembled, d *march.Desc) (r refRun, ran bool) {
	return f.refs.get(tenantKey(tenant, referenceKey(a.hash, d)), func() refRun {
		f.all.refRuns.Add(1)
		start := time.Now()
		s, err := iss.New(a.f, iss.Config{Desc: d, CycleAccurate: true})
		if err != nil {
			return refRun{err: err}
		}
		if err := s.Run(); err != nil {
			return refRun{err: err}
		}
		return refRun{wall: time.Since(start), stats: s.Stats(), output: s.Output()}
	})
}

// ELF returns the memoized assembled image of a workload (shared with
// job execution; used by benchmark harnesses).
func (f *Farm) ELF(w workload.Workload) (*elf32.File, error) {
	a := f.elf("", w)
	return a.f, a.err
}

// Reference returns the memoized reference-simulator statistics and
// debug output of a workload under desc (nil = march.Default).
func (f *Farm) Reference(w workload.Workload, desc *march.Desc) (iss.Stats, []uint32, error) {
	if desc == nil {
		desc = march.Default()
	}
	a := f.elf("", w)
	if a.err != nil {
		return iss.Stats{}, nil, a.err
	}
	r, _ := f.reference("", a, desc)
	return r.stats, r.output, r.err
}

// runJob executes one job: assemble (memoized), reference-run
// (memoized), translate (content-addressed cache), platform-run, verify
// and measure.
func (f *Farm) runJob(idx int, job Job) Result {
	f.all.jobsRun.Add(1)
	obsJobs.Inc()
	r := Result{Index: idx, Name: job.Workload.Name, Level: job.Options.Level, Config: job.Config, counts: FarmStats{JobsRun: 1}}
	fail := func(err error) Result {
		f.all.failed.Add(1)
		r.counts.Failed = 1
		obsJobsFailed.Inc()
		r.Err = err
		r.Error = err.Error()
		return r
	}

	aStart := time.Now()
	endA := obs.Trace.Span("assemble", "farm", int64(idx))
	a := f.elf(job.Tenant, job.Workload)
	endA()
	obsStageAssemble.Observe(time.Since(aStart).Seconds())
	if a.err != nil {
		return fail(a.err)
	}
	desc := job.Options.Desc
	if desc == nil {
		desc = march.Default()
	}

	endRef := obs.Trace.Span("reference", "farm", int64(idx))
	ref, ran := f.reference(job.Tenant, a, desc)
	endRef()
	if ran {
		r.counts.ReferenceRuns = 1
	}
	obsStageReference.Observe(ref.wall.Seconds())
	if ref.err != nil {
		return fail(fmt.Errorf("%s: reference: %w", job.Workload.Name, ref.err))
	}
	if err := workload.SameOutput(ref.output, job.Workload.Expected); err != nil {
		return fail(fmt.Errorf("%s: reference %w", job.Workload.Name, err))
	}
	r.Instructions = ref.stats.Retired
	r.BoardCycles = ref.stats.Cycles
	r.BoardCPI = float64(r.BoardCycles) / float64(r.Instructions)
	r.BoardSeconds = float64(r.BoardCycles) / float64(desc.ClockHz)
	r.BoardMIPS = float64(r.Instructions) / r.BoardSeconds / 1e6
	r.RefWallSeconds = ref.wall.Seconds()

	tStart := time.Now()
	endT := obs.Trace.Span("translate", "farm", int64(idx))
	prog, o, err := f.cache.translate(job.Tenant, a.hash, a.f, job.Options)
	endT()
	r.counts.lookup(o)
	if err != nil {
		return fail(fmt.Errorf("%s L%d: %w", job.Workload.Name, int(job.Options.Level), err))
	}
	r.TranslateWallSeconds = time.Since(tStart).Seconds()
	obsStageTranslate.Observe(r.TranslateWallSeconds)
	r.CacheHit = o != translated

	runStart := time.Now()
	endX := obs.Trace.Span("execute", "farm", int64(idx))
	sys := platform.NewWithEngine(prog, f.engine)
	if err := sys.Run(); err != nil {
		endX()
		return fail(fmt.Errorf("%s L%d: %w", job.Workload.Name, int(job.Options.Level), err))
	}
	endX()
	r.RunWallSeconds = time.Since(runStart).Seconds()
	obsStageExecute.Observe(r.RunWallSeconds)
	if err := workload.SameOutput(sys.Output, job.Workload.Expected); err != nil {
		return fail(fmt.Errorf("%s L%d: %w", job.Workload.Name, int(job.Options.Level), err))
	}

	st := sys.Stats()
	obsPlatRegions.Add(st.Regions)
	obsPlatC6xCycles.Add(st.C6xCycles)
	r.C6xCycles = st.C6xCycles
	r.GeneratedCycles = st.GeneratedCycles
	r.CPI = float64(r.C6xCycles) / float64(r.Instructions)
	r.Seconds = float64(r.C6xCycles) / platform.C6xClockHz
	r.MIPS = float64(r.Instructions) / r.Seconds / 1e6
	if job.Options.Level >= 1 {
		r.DeviationPct = 100 * float64(r.GeneratedCycles-r.BoardCycles) / float64(r.BoardCycles)
	}
	if r.RunWallSeconds > 0 {
		r.SpeedupVsISS = r.RefWallSeconds / r.RunWallSeconds
	}
	return r
}
