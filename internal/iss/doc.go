// Package iss implements the cycle-accurate interpreted instruction-set
// simulator of the TC32 source processor. It plays the role of the TriCore
// TC10GP evaluation board in the paper's evaluation: its cycle counts are
// the ground truth that the translated programs' generated cycle streams
// are compared against (Figure 6), and its instruction counts are the
// basis of the MIPS numbers (Figure 5) and the cycles-per-instruction
// table (Table 1).
//
// # Model
//
// [New] loads an ELF32 image under a [Config]: a march.Desc timing
// description (nil selects the default TC32) and the CycleAccurate
// switch. With CycleAccurate set, the simulator replays the full timing
// model — dual-issue pairing, load-to-use and multiply latencies, the
// iterative divider, static branch prediction with actual outcomes, a
// live set-associative I-cache, I/O wait states, and optionally the
// operand-dependent Booth multiplier — against the same march.Desc the
// translator's static prediction reads, so prediction error isolates the
// paper's dynamic effects. Without it, the ISS is the purely functional
// interpreter baseline of the host-speed comparison.
//
// # Memory
//
// [Memory] is the address space of the TC32 system — RAM, the text image
// and the I/O window with the debug port — and the only description of
// it: the RT-level proxy (internal/rtlsim) and the translated platform
// (internal/platform) decode through the same type, so a program sees
// one address space on every simulator.
//
// # Role in the farm
//
// The simulation farm memoizes reference runs per (ELF hash, full
// description): unlike translation, the reference I-cache observes every
// Desc field, so the memo key cannot drop any of them. [Sim.Stats]
// carries retired-instruction and cycle counts; [Sim.Output] is the
// debug-port stream used for functional verification across all
// simulators and translation levels.
package iss
