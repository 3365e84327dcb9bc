package main

// cold.translate: the front-end rung — the edit-rebuild-rerun loop of a
// firmware developer. Every round is a fresh process that pushes a set
// of seeded, straight-line-heavy programs it has never seen, once each,
// through simfarm.Farm.Run at Level 3 with an empty translation cache:
// assemble, reference ISS, translate, compile and fuse dominate and the
// engine barely runs.
//
// Why a process per round: c6x.CompileCached / FuseCached memoize per
// *Program for the life of the process, so repeating a cold round in
// one process pins ~70 MiB more per round and the rounds stop being
// comparable (the garbage collector's share grows with the pinned heap).

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/simfarm"
	"repro/internal/workload"
)

// childEnv tells a re-executed benchmark binary to run one cold round.
const childEnv = "PERFBENCH_COLD_CHILD"

// coldChildResult is what the child prints: the timed Farm.Run.
type coldChildResult struct {
	WallNS     int64             `json:"wall_ns"`
	PeakRSSMiB float64           `json:"peak_rss_mib"`
	Stats      simfarm.FarmStats `json:"stats"`
	Results    []simfarm.Result  `json:"results"`
}

func coldJobs(seed int64, sz sizes) []simfarm.Job {
	var jobs []simfarm.Job
	for _, p := range coldPrograms(seed, sz) {
		jobs = append(jobs, simfarm.Job{
			Workload: workload.Workload{Name: p.name, Source: p.source, Expected: p.expected},
			Options:  core.Options{Level: core.Level3},
		})
	}
	return jobs
}

// coldChild is the body of the child process. The warm-up set comes
// from seed+1 so the timed programs are never seen before the timed run.
func coldChild(seed int64, sz sizes, procs int) coldChildResult {
	warm := coldJobs(seed+1, sz)
	simfarm.New(simfarm.Config{Workers: procs}).Run(warm[max(0, len(warm)-2):]) // the two smallest
	jobs := coldJobs(seed, sz)
	farm := simfarm.New(simfarm.Config{Workers: procs})
	t := time.Now()
	results, _ := farm.Run(jobs)
	wall := time.Since(t)
	return coldChildResult{
		WallNS: wall.Nanoseconds(), PeakRSSMiB: peakRSSMiB(), Stats: farm.Stats(), Results: results,
	}
}

// runChildIfAsked turns this process into a cold-round child when the
// environment says so. It reports whether it did.
func runChildIfAsked() bool {
	spec := os.Getenv(childEnv)
	if spec == "" {
		return false
	}
	var seed int64
	var procs int
	var smoke bool
	if _, err := fmt.Sscanf(spec, "%d %d %t", &seed, &procs, &smoke); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		os.Exit(2)
	}
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	if err := json.NewEncoder(os.Stdout).Encode(coldChild(seed, sz, procs)); err != nil {
		os.Exit(2)
	}
	return true
}

type coldInst struct {
	child coldChildResult
	ly    *layers
}

func setupCold(cfg *config, tk *track, ly *layers) (instance, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		fmt.Sprintf("%s=%d %d %t", childEnv, cfg.seed, cfg.procs, cfg.smoke),
		"GOMAXPROCS="+strconv.Itoa(cfg.procs))
	cmd.Stderr = os.Stderr
	end := tk.begin(layerIdle, "child process: generate, warm up, simfarm.Farm.Run", 0)
	t := time.Now()
	data, err := cmd.Output()
	total := time.Since(t)
	end()
	if err != nil {
		return nil, 0, fmt.Errorf("cold.translate child: %w", err)
	}
	c := &coldInst{ly: ly}
	if err := json.Unmarshal(data, &c.child); err != nil {
		return nil, 0, fmt.Errorf("cold.translate child output: %w", err)
	}
	ly.childPeakRSSMiB = max(ly.childPeakRSSMiB, c.child.PeakRSSMiB)
	// Set-up is everything the round cost the parent except the timed
	// Farm.Run: process start, generation, warm-up, result transfer.
	return c, total - time.Duration(c.child.WallNS), nil
}

func (c *coldInst) close() error { return nil }

// round reports the child's timed Farm.Run. One batch = one Farm.Run.
func (c *coldInst) round(tk *track) (roundResult, error) {
	rr := roundResult{wall: time.Duration(c.child.WallNS)}
	rr.batches = []time.Duration{rr.wall}
	hash := sha256.New()
	for _, r := range c.child.Results {
		rr.jobs++
		if r.Error != "" {
			rr.failed++
			fmt.Fprintf(hash, "%s failed: %s\n", r.Name, r.Error)
			continue
		}
		rr.insts += r.Instructions
		rr.sim.c6xCycles += r.C6xCycles
		rr.sim.refCycles += r.BoardCycles
		rr.sim.errCycles += abs64(r.GeneratedCycles - r.BoardCycles)
		fmt.Fprintf(hash, "%s insts=%d ref=%d c6x=%d gen=%d\n", r.Name, r.Instructions, r.BoardCycles, r.C6xCycles, r.GeneratedCycles)
	}
	rr.sim.digest = fmt.Sprintf("%x", hash.Sum(nil))
	c.ly.set("simfarm.cache_hits", float64(c.child.Stats.CacheHits))
	c.ly.set("simfarm.cache_misses", float64(c.child.Stats.CacheMisses))
	c.ly.set("simfarm.cache_disk_hits", float64(c.child.Stats.DiskCacheHits))
	return rr, nil
}

// probeCold walks the farm's pipeline by hand, one program at a time,
// so each stage has its own span: the farm's own run is one opaque span
// from outside. A warm Farm.Run then gives the farm's dispatch overhead.
func probeCold(cfg *config, tk *track, ly *layers, inst instance) error {
	progs := coldPrograms(cfg.seed, cfg.sz)
	var pps []*prepared
	var bs buildStats
	var insts, c6x int64
	var runWall time.Duration
	for i, p := range progs {
		pp, err := prepare(tk, p, core.Level3, i)
		if err != nil {
			return err
		}
		ly.addPrepared(pp)
		bs.measureBuild(tk, pp, i, 1)
		st, wall, err := runOnce(tk, pp, platform.EngineCompiled, i)
		if err != nil {
			return err
		}
		insts += pp.ref.Retired
		c6x += st.C6xCycles
		runWall += wall
		pps = append(pps, pp)
	}
	ly.setBuild(&bs)
	ly.set("core.cpi_c6x", float64(c6x)/float64(insts))
	ly.set("run.minst_per_s", float64(insts)/runWall.Seconds()/1e6)
	probePlatform(cfg, tk, ly, pps)
	probeFarm(cfg, tk, ly, coldJobs(cfg.seed, cfg.sz))
	return nil
}

// probeFarm measures the farm's own cost on warm jobs: a second
// Farm.Run of a batch hits the assembly, reference and translation
// memo tables, so what is left beside the platform runs is dispatch.
func probeFarm(cfg *config, tk *track, ly *layers, jobs []simfarm.Job) {
	farm := simfarm.New(simfarm.Config{Workers: cfg.procs})
	end := tk.begin(layerFarm, "simfarm.Farm.Run (cold)", 0)
	farm.Run(jobs)
	end()
	end = tk.begin(layerFarm, "simfarm.Farm.Run (warm)", 0)
	t := time.Now()
	results, _ := farm.Run(jobs)
	wall := time.Since(t)
	end()
	var run float64
	for _, r := range results {
		run += r.RunWallSeconds
	}
	workers := float64(min(cfg.procs, len(jobs)))
	ly.set("simfarm.overhead_us_per_job", (wall.Seconds()-run/workers)*1e6/float64(len(jobs)))

	// A warm key in the translation cache, hit directly.
	f, err := farm.ELF(jobs[0].Workload)
	if err != nil {
		return
	}
	h, err := simfarm.HashELF(f)
	if err != nil {
		return
	}
	n := cfg.sz.probeCacheHitCalls
	end = tk.begin(layerFarm, "simfarm.TranslationCache.TranslateHashed (warm)", 0)
	t = time.Now()
	for i := 0; i < n; i++ {
		farm.Cache().TranslateHashed(h, f, jobs[0].Options)
	}
	ly.set("simfarm.cache_hit_ns", float64(time.Since(t).Nanoseconds())/float64(n))
	end()
}
