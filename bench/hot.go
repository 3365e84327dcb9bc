package main

// hot.L2 / hot.L3: the engine rung. Four scaled kernels are translated
// in set-up; a round builds a platform around each and runs it to halt
// on the fused engine, one at a time. The translator, the farm and the
// store do nothing in the timed region.

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
)

type hotInst struct {
	progs []*prepared
	ly    *layers
}

func setupHot(level core.Level) func(*config, *track, *layers) (instance, time.Duration, error) {
	return func(cfg *config, tk *track, ly *layers) (instance, time.Duration, error) {
		start := time.Now()
		end := tk.begin(layerBench, "generate", 0)
		kernels := hotKernels(cfg.seed, cfg.sz)
		end()
		h := &hotInst{ly: ly}
		for i, k := range kernels {
			pp, err := prepare(tk, k, level, i)
			if err != nil {
				return nil, 0, err
			}
			ly.addPrepared(pp)
			h.progs = append(h.progs, pp)
		}
		return h, time.Since(start), nil
	}
}

func (h *hotInst) close() error { return nil }

// round runs every kernel once. One batch = the four kernels.
func (h *hotInst) round(tk *track) (roundResult, error) {
	var rr roundResult
	hash := sha256.New()
	for i, pp := range h.progs {
		st, wall, err := runOnce(tk, pp, platform.EngineCompiled, i)
		rr.wall += wall
		rr.jobs++
		rr.insts += pp.ref.Retired
		if err != nil {
			rr.failed++
			fmt.Fprintf(hash, "%s failed: %v\n", pp.name, err)
			continue
		}
		rr.sim.c6xCycles += st.C6xCycles
		rr.sim.refCycles += pp.ref.Cycles
		rr.sim.errCycles += abs64(st.GeneratedCycles - pp.ref.Cycles)
		fmt.Fprintf(hash, "%s %v c6x=%d gen=%d\n", pp.name, pp.expected, st.C6xCycles, st.GeneratedCycles)
	}
	rr.batches = []time.Duration{rr.wall}
	rr.sim.digest = fmt.Sprintf("%x", hash.Sum(nil))
	if rr.failed == 0 {
		h.ly.set("core.cpi_c6x", float64(rr.sim.c6xCycles)/float64(rr.insts))
		h.ly.set("run.minst_per_s", float64(rr.insts)/rr.wall.Seconds()/1e6)
	}
	return rr, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// probeHot measures what the rounds cannot tell apart: compile vs fuse
// time, the three engines' cost per C6x cycle, a warm platform
// construction, and the platform's memory port.
func probeHot(cfg *config, tk *track, ly *layers, inst instance) error {
	h := inst.(*hotInst)
	var bs buildStats
	for i, pp := range h.progs {
		bs.measureBuild(tk, pp, i, buildReps)
	}
	ly.setBuild(&bs)
	// Host time per C6x cycle on each engine, on the first kernel only
	// (the sieve): the interpreter is ~15x slower than the fused engine,
	// and one program on all three keeps the three figures comparable.
	for _, e := range []struct {
		engine platform.Engine
		metric string
	}{
		{platform.EngineCompiled, "c6x.ns_per_c6x_cycle.fused"},
		{platform.EngineCompiledNoFuse, "c6x.ns_per_c6x_cycle.nofuse"},
		{platform.EngineInterp, "c6x.ns_per_c6x_cycle.interp"},
	} {
		st, wall, err := runOnce(tk, h.progs[0], e.engine, 0)
		if err != nil {
			return err
		}
		ly.set(e.metric, float64(wall.Nanoseconds())/float64(st.C6xCycles))
	}
	probePlatform(cfg, tk, ly, h.progs)
	return nil
}

// probePlatform times a warm platform.NewWithEngine and direct
// System.Load / System.Store calls on RAM and, where the program has
// one (Level 3), on the cache table.
func probePlatform(cfg *config, tk *track, ly *layers, progs []*prepared) {
	const news = 2000
	end := tk.begin(layerPlatNew, "platform.NewWithEngine x2000", 0)
	t := time.Now()
	var sys *platform.System
	for i := 0; i < news; i++ {
		sys = platform.NewWithEngine(progs[i%len(progs)].prog, platform.EngineCompiled)
	}
	ly.set("platform.new_us", float64(time.Since(t).Nanoseconds())/1e3/news)
	end()

	prog := progs[0].prog
	addrs := []uint32{prog.DataAddr + 64}
	if prog.DataAddr == 0 {
		addrs[0] = 0x1000_0040
	}
	if prog.CacheTableWords > 0 {
		addrs = append(addrs, core.CacheTableBase)
	}
	n := cfg.sz.probeLoadStoreCalls
	end = tk.begin(layerRun, "platform.System.Store/Load", 0)
	t = time.Now()
	for i := 0; i < n; i++ {
		sys.Store(addrs[i%len(addrs)], uint32(i), 4, 0)
	}
	ly.set("platform.store_ns", float64(time.Since(t).Nanoseconds())/float64(n))
	t = time.Now()
	var sink uint32
	for i := 0; i < n; i++ {
		v, _, _ := sys.Load(addrs[i%len(addrs)], 4, 0)
		sink += v
	}
	ly.set("platform.load_ns", float64(time.Since(t).Nanoseconds())/float64(n))
	end()
	_ = sink
}
