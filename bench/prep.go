package main

// The front half of the pipeline, shared by every workload's set-up:
// assemble, run the reference ISS, check it against the Go reference,
// translate, and build the host engine. Each call into a repo layer is
// wrapped in a span.

import (
	"fmt"
	"time"

	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/platform"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// prepared is one program ready to run on the platform.
type prepared struct {
	program
	elf  *elf32.File
	ref  iss.Stats // reference ISS run: retired instructions and cycles
	prog *core.Program

	assembleWall, issWall, translateWall time.Duration
}

// buildStats are the c6x.Compile / c6x.Fuse figures of a traced run:
// the walls are sums over timings, the counts are once per program.
type buildStats struct {
	compileWall, fuseWall       time.Duration
	timings                     int
	segments, entries, declined int
}

// assembleOnly is tc32asm.Assemble with the program's name on an error.
func assembleOnly(p program) (*elf32.File, error) {
	f, err := tc32asm.Assemble(p.source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return f, nil
}

// assembleAndReference assembles p and runs it on the reference ISS,
// whose output must equal the Go reference's.
func assembleAndReference(tk *track, p program, job int) (*prepared, error) {
	pp := &prepared{program: p}
	t := time.Now()
	end := tk.begin(layerAsm, "tc32asm.Assemble", job)
	f, err := assembleOnly(p)
	end()
	pp.assembleWall = time.Since(t)
	if err != nil {
		return nil, err
	}
	pp.elf = f

	t = time.Now()
	end = tk.begin(layerISS, "iss.Sim.Run", job)
	sim, err := iss.New(f, iss.Config{CycleAccurate: true})
	if err == nil {
		err = sim.Run()
	}
	end()
	pp.issWall = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: reference ISS: %w", p.name, err)
	}
	pp.ref = sim.Stats()
	if err := workload.SameOutput(sim.Output(), p.expected); err != nil {
		return nil, fmt.Errorf("%s: reference ISS vs Go reference: %w", p.name, err)
	}
	return pp, nil
}

// prepare takes p through assembly, the reference run, translation and
// engine construction. The first platform.NewWithEngine of a program
// compiles and fuses it (memoized per *core.Program inside c6x), so
// after prepare a NewWithEngine is warm.
func prepare(tk *track, p program, level core.Level, job int) (*prepared, error) {
	pp, err := assembleAndReference(tk, p, job)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	end := tk.begin(layerCore, "core.Translate", job)
	pp.prog, err = core.Translate(pp.elf, core.Options{Level: level})
	end()
	pp.translateWall = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s L%d: %w", p.name, int(level), err)
	}
	end = tk.begin(layerC6xBuild, "platform.NewWithEngine (first: compile+fuse)", job)
	platform.NewWithEngine(pp.prog, platform.EngineCompiled)
	end()
	return pp, nil
}

// regionOf rebuilds the packet→region table platform.NewWithEngine
// hands the fuser, so the traced run can call c6x.Fuse on its own.
func regionOf(prog *core.Program) []int32 {
	r := make([]int32, len(prog.C6x.Packets))
	for i := range r {
		r[i] = -1
	}
	for ri, b := range prog.Blocks {
		if r[b.PacketStart] < 0 {
			r[b.PacketStart] = int32(ri)
		}
	}
	return r
}

// buildReps is how often the small programs' compile and fuse are
// timed (sub-millisecond calls; one sample each is mostly noise).
const buildReps = 5

// measureBuild times c6x.Compile and c6x.Fuse directly, reps times (the
// memoized pair inside NewWithEngine cannot be told apart from outside).
func (bs *buildStats) measureBuild(tk *track, pp *prepared, job, reps int) {
	var fp *c6x.FusedProgram
	for r := 0; r < reps; r++ {
		bs.timings++
		t := time.Now()
		end := tk.begin(layerC6xBuild, "c6x.Compile", job)
		_, err := c6x.Compile(pp.prog.C6x)
		end()
		bs.compileWall += time.Since(t)
		if err == nil {
			t = time.Now()
			end = tk.begin(layerC6xBuild, "c6x.Fuse", job)
			fp, err = c6x.Fuse(pp.prog.C6x, c6x.FuseConfig{RegionOf: regionOf(pp.prog), ConstRegs: core.FusedConstRegs()})
			end()
			bs.fuseWall += time.Since(t)
		}
		if err != nil {
			fp = nil
		}
	}
	if fp == nil {
		bs.declined++
		return
	}
	bs.segments += fp.Segments()
	bs.entries += fp.Entries()
}

// runOnce builds a system on a prepared program and runs it to halt.
func runOnce(tk *track, pp *prepared, engine platform.Engine, job int) (platform.Stats, time.Duration, error) {
	t := time.Now()
	end := tk.begin(layerPlatNew, "platform.NewWithEngine", job)
	sys := platform.NewWithEngine(pp.prog, engine)
	end()
	end = tk.begin(layerRun, "platform.System.Run", job)
	err := sys.Run()
	end()
	wall := time.Since(t)
	if err != nil {
		return platform.Stats{}, wall, fmt.Errorf("%s: %w", pp.name, err)
	}
	if err := workload.SameOutput(sys.Output, pp.expected); err != nil {
		return platform.Stats{}, wall, fmt.Errorf("%s on %s: %w", pp.name, engine, err)
	}
	return sys.Stats(), wall, nil
}
