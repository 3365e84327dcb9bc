// Package c6x models the target processor of the binary translator: a
// TMS320C6x-class VLIW DSP. Like the C62xx used on the paper's emulation
// platform it has eight functional units (.L/.S/.M/.D on each of two
// sides), two register files, full predication, exposed delay slots
// (multiply 1, load 4, branch 5), multi-cycle NOPs, and no interlocks —
// the schedule is the contract, and the simulator can verify it.
//
// One deliberate extension over the C6201: 32 registers per file (as on
// the C64x) instead of 16, because the translator's fixed register binding
// maps the TC32's 16 data + 16 address registers onto register file
// A/B directly ("Delivery points and precise state" in
// docs/architecture.md).
//
// # The ISA
//
// An opcode is defined once, by its row of opTable (isa.go); the
// interpreter, the fuser, the issue rules and internal/sched derive what
// they know from it; no lowering restates an op's semantics.
//
// # Execution
//
// A Sim holds the architectural state. Its packet interpreter (Step, Run)
// decodes and validates every packet as it executes: the reference
// semantics and the one independent oracle. The fuser (fuse.go) compiles
// a Program once into segments — closure chains that track the branch
// delay and the in-flight writeback window symbolically and fold each
// segment's cycle and statistics accounting into constants, a constant
// register write included until an op can observe it — ending at
// region starts, control-flow forks and FuseConfig.MaxSegPackets (1 is
// the unfused build, Compile); declared runtime routines become one
// validated op (intrinsic.go), and Volatile memory ops the caller binds
// call its handler instead of the MemPort (FuseConfig.Bind). Attach a build with UseFused and run it
// with RunFused/StepFused (fuserun.go): fused code hands back to Step
// wherever its contract ends and re-enters wherever the dynamic state
// matches a segment, so both interleave within one run, bit-identical to
// the interpreter alone in registers, clocks, Stats and memory traffic
// (EngineStats reports the split). internal/platform runs the fused build
// by default, the unfused one under the front-ends' -nofuse and the
// interpreter alone under -interp.
package c6x
