// Command c6xrun executes a translated program (produced by cmd/cabt) on
// the emulation-platform simulation: the C6x core plus the FPGA
// synchronization device and the SoC bus. It reports both clocks — the
// C6x execution cycles (the platform's real time at 200 MHz) and the
// generated source cycles (the emulated core's time).
//
// The program executes as fused superblocks by default; -nofuse
// compiles one packet per segment and -interp selects the packet
// interpreter (the equivalence oracle), both bit-identical but slower.
//
// Usage:
//
//	c6xrun [-uart] [-interp] [-nofuse] [-stats] prog.c6x
package main

import (
	"encoding/gob"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/socbus"
)

func main() {
	uart := flag.Bool("uart", false, "attach the SoC-bus UART and timer")
	interp := flag.Bool("interp", false, "run on the packet interpreter instead of fused code")
	nofuse := flag.Bool("nofuse", false, "compile one packet per segment, folding nothing across packets (differential reference)")
	stats := flag.Bool("stats", false, "also report how execution split between fused and generic code")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: c6xrun prog.c6x")
		os.Exit(2)
	}
	r, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var prog core.Program
	if err := gob.NewDecoder(r).Decode(&prog); err != nil {
		fatal(fmt.Errorf("decoding %s: %w", flag.Arg(0), err))
	}
	r.Close()

	sys := platform.NewWithEngine(&prog, cliutil.Engine(*interp, *nofuse))
	var u *socbus.UART
	if *uart {
		u = socbus.NewUART(16)
		sys.AttachBus(socbus.NewBus(u, socbus.NewTimer()))
	}
	if err := sys.Run(); err != nil {
		fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("level:            %s\n", prog.Level)
	fmt.Printf("engine:           %s\n", sys.Engine())
	fmt.Printf("c6x cycles:       %d (%.3f ms at 200 MHz)\n", st.C6xCycles, 1e3*float64(st.C6xCycles)/platform.C6xClockHz)
	fmt.Printf("generated cycles: %d (emulated core time %.3f ms at 48 MHz)\n",
		st.GeneratedCycles, 1e3*float64(st.GeneratedCycles)/48e6)
	fmt.Printf("regions:          %d executed\n", st.Regions)
	fmt.Printf("packets:          %d (%d instructions, %d stall cycles)\n",
		st.Packets, st.Instructions, st.StallCycles)
	if *stats {
		es := sys.CPU.EngineStats()
		fmt.Printf("fused entries:    %d clean + %d matched (%d hook stops, %d deopts)\n",
			es.EntriesClean, es.EntriesMatched, es.HookStops, es.Deopts())
		fmt.Printf("deopts by cause:  %s\n", es.DeoptSummary())
		fmt.Printf("intrinsic sites:  %s (%d calls on the op)\n", es.IntrinsicSummary(), es.IntrinsicRuns)
		fmt.Printf("bound sync sites: %d (%d fallbacks to the memory port)\n", es.BoundSites, es.DeviceFallbacks)
		fmt.Printf("generic packets:  %d of %d (%.1f%%)\n", es.GenericPackets, es.Packets, 100*es.GenericShare())
	}
	for i, w := range sys.Output {
		fmt.Printf("out[%d] = %d (%#x)\n", i, int32(w), w)
	}
	if u != nil && len(u.Sent) > 0 {
		fmt.Printf("uart: %q (%d overruns)\n", u.Sent, u.Overruns)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "c6xrun:", err)
	os.Exit(1)
}
