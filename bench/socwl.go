package main

// soc.4c.seq / soc.4c.par: the SoC rung. Four translated Level-2 cores,
// quantum 64, round-robin arbitration, run a scaled sharded sieve
// (compute-bound, a handful of bus transactions) and a scaled mailbox
// ping-pong ring (bus-bound, three cores polling while one works) back
// to back. The quantum scheduler, the arbiter and the socbus devices
// carry the cost; .par runs the same programs on the speculative
// parallel scheduler.

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/workload"
)

const (
	socCores   = 4
	socQuantum = 64
)

// socProgram is one multi-core program with its all-ISS reference run.
type socProgram struct {
	name     string
	cores    []*prepared
	refInsts int64 // all-ISS SoC: instructions over all cores
	refSpan  int64 // all-ISS SoC: makespan in source cycles
}

type socInst struct {
	parallel bool
	progs    []socProgram
	ly       *layers
}

func socConfig(sp *socProgram, useISS, parallel bool) soc.Config {
	cfg := soc.Config{Quantum: socQuantum, Arbitration: soc.RoundRobin, Parallel: parallel}
	for _, pp := range sp.cores {
		cfg.Cores = append(cfg.Cores, soc.CoreConfig{Name: pp.name, ELF: pp.elf, Prog: pp.prog, UseISS: useISS})
	}
	return cfg
}

// runSoC builds the SoC and runs it to completion, checking every
// core's debug-port output against the Go reference.
func runSoC(tk *track, sp *socProgram, useISS, parallel bool, job int) (*soc.System, time.Duration, error) {
	t := time.Now()
	end := tk.begin(layerSoCNew, "soc.New", job)
	s, err := soc.New(socConfig(sp, useISS, parallel))
	end()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", sp.name, err)
	}
	end = tk.begin(layerSoCRun, "soc.System.Run", job)
	err = s.Run()
	end()
	wall := time.Since(t)
	if err != nil {
		return nil, wall, fmt.Errorf("%s: %w", sp.name, err)
	}
	for i, pp := range sp.cores {
		if err := workload.SameOutput(s.Output(i), pp.expected); err != nil {
			return nil, wall, fmt.Errorf("%s: %w", pp.name, err)
		}
	}
	return s, wall, nil
}

func setupSoC(parallel bool) func(*config, *track, *layers) (instance, time.Duration, error) {
	return func(cfg *config, tk *track, ly *layers) (instance, time.Duration, error) {
		start := time.Now()
		end := tk.begin(layerBench, "generate", 0)
		mps := []multiProgram{genShardedSieve(cfg.seed, cfg.sz, socCores), genPingPong(cfg.seed, cfg.sz, socCores)}
		end()
		si := &socInst{parallel: parallel, ly: ly}
		var issInsts int64
		var issWall time.Duration
		for j, mp := range mps {
			sp := socProgram{name: mp.name}
			for _, p := range mp.cores {
				// A core's program only terminates beside its peers, so
				// there is no single-core reference run: assemble and
				// translate here, reference the whole SoC below.
				pp := &prepared{program: p}
				var err error
				t := time.Now()
				e := tk.begin(layerAsm, "tc32asm.Assemble", j)
				pp.elf, err = assembleOnly(p)
				e()
				pp.assembleWall = time.Since(t)
				if err != nil {
					return nil, 0, err
				}
				t = time.Now()
				e = tk.begin(layerCore, "core.Translate", j)
				pp.prog, err = core.Translate(pp.elf, core.Options{Level: core.Level2})
				e()
				pp.translateWall = time.Since(t)
				if err != nil {
					return nil, 0, fmt.Errorf("%s: %w", p.name, err)
				}
				ly.addPrepared(pp)
				sp.cores = append(sp.cores, pp)
			}
			// Reference: the same SoC with every core on the ISS.
			ref, wall, err := runSoC(tk, &sp, true, false, j)
			if err != nil {
				return nil, 0, fmt.Errorf("all-ISS reference: %w", err)
			}
			st := ref.Results()
			sp.refInsts, sp.refSpan = st.TotalInstructions, st.MakespanCycles
			issInsts += sp.refInsts
			issWall += wall
			// First translated run: compiles and fuses every core.
			if _, _, err := runSoC(tk, &sp, false, false, j); err != nil {
				return nil, 0, err
			}
			si.progs = append(si.progs, sp)
		}
		ly.set("iss.minst_per_s", float64(issInsts)/issWall.Seconds()/1e6)
		return si, time.Since(start), nil
	}
}

func (si *socInst) close() error { return nil }

// round runs both programs. One batch = sieve then ping-pong.
func (si *socInst) round(tk *track) (roundResult, error) {
	var rr roundResult
	hash := sha256.New()
	var commits, outcomes, quanta, busTxns, busWait int64
	var runNS float64
	for j := range si.progs {
		sp := &si.progs[j]
		s, wall, err := runSoC(tk, sp, false, si.parallel, j)
		rr.wall += wall
		rr.jobs++
		rr.insts += sp.refInsts
		if err != nil {
			rr.failed++
			fmt.Fprintf(hash, "%s failed: %v\n", sp.name, err)
			continue
		}
		st := s.Results()
		rr.sim.refCycles += sp.refSpan
		rr.sim.errCycles += abs64(st.MakespanCycles - sp.refSpan)
		quanta += st.Quanta
		busTxns += st.BusTransactions
		busWait += st.BusWaitCycles
		fmt.Fprintf(hash, "%s quanta=%d bus=%d wait=%d\n", sp.name, st.Quanta, st.BusTransactions, st.BusWaitCycles)
		for _, c := range st.Cores {
			rr.sim.c6xCycles += c.C6xCycles
			fmt.Fprintf(hash, " %s %v insts=%d cycles=%d c6x=%d\n", c.Name, c.Output, c.Instructions, c.Cycles, c.C6xCycles)
		}
		runNS += float64(wall.Nanoseconds())
		cs, rbs, rrs := s.SpecStats()
		for i := range cs {
			commits += cs[i]
			outcomes += cs[i] + rbs[i] + rrs[i]
		}
	}
	rr.batches = []time.Duration{rr.wall}
	rr.sim.digest = fmt.Sprintf("%x", hash.Sum(nil))
	if rr.failed == 0 {
		si.ly.set("soc.ns_per_quantum", runNS/float64(quanta))
		si.ly.set("soc.bus_transactions", float64(busTxns))
		si.ly.set("soc.bus_wait_cycles", float64(busWait))
		si.ly.set("core.cpi_c6x", float64(rr.sim.c6xCycles)/float64(rr.insts))
		si.ly.set("run.minst_per_s", float64(rr.insts)/rr.wall.Seconds()/1e6)
		if outcomes > 0 {
			si.ly.set("soc.commit_ratio", float64(commits)/float64(outcomes))
		}
	}
	return rr, nil
}

func probeSoC(cfg *config, tk *track, ly *layers, inst instance) error {
	si := inst.(*socInst)
	var bs buildStats
	var all []*prepared
	for j := range si.progs {
		for _, pp := range si.progs[j].cores {
			bs.measureBuild(tk, pp, j, buildReps)
			all = append(all, pp)
		}
	}
	ly.setBuild(&bs)
	probePlatform(cfg, tk, ly, all)
	return nil
}
