package core_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// translationDigest pins the translator's output: every field of every
// packet, the block table, the probe routine and the source-to-packet map
// of every program below. A change to the scheduler, the lowering or the
// linker that moves a single instruction changes it. A deliberate change
// of the generated code updates the constant in the same commit (and
// bumps the translation-cache key, translatorGen).
const translationDigest = "7b9f3d1f8e96ddd54e348745388a116280583ef438a20e11af831272457f995d"

func hashProgram(h hash.Hash, name string, prog *core.Program) {
	fmt.Fprintf(h, "%s\n%+v\n%+v\n%+v\n", name, prog.C6x.Packets, prog.Blocks, prog.ProbeRoutine)
	srcs := make([]uint32, 0, len(prog.PacketOfSrc))
	for a := range prog.PacketOfSrc {
		srcs = append(srcs, a)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, a := range srcs {
		fmt.Fprintf(h, "%#x:%d ", a, prog.PacketOfSrc[a])
	}
	fmt.Fprintln(h)
}

func TestTranslationDigest(t *testing.T) {
	type input struct {
		name string
		f    *elf32.File
	}
	var inputs []input
	for _, w := range workload.All() {
		inputs = append(inputs, input{w.Name, assemble(t, w.Source)})
	}
	for seed := int64(1); seed <= 20; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("gen%d", seed), genProgram(rand.New(rand.NewSource(seed)))})
	}
	h := sha256.New()
	for _, in := range inputs {
		for level := core.Level0; level <= core.Level3; level++ {
			for _, single := range []bool{false, true} {
				prog, err := core.Translate(in.f, core.Options{Level: level, SingleDrainCorrection: single})
				if err != nil {
					t.Fatalf("%s L%d single=%v: %v", in.name, int(level), single, err)
				}
				hashProgram(h, fmt.Sprintf("%s/L%d/single=%v", in.name, int(level), single), prog)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != translationDigest {
		t.Errorf("translation digest = %s, want %s", got, translationDigest)
	}
}

// BenchmarkTranslate translates every workload at Level 3: the cost a
// new program pays before its first simulated cycle.
func BenchmarkTranslate(b *testing.B) {
	var fs []*elf32.File
	for _, w := range workload.All() {
		f, err := tc32asm.Assemble(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		fs = append(fs, f)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, f := range fs {
			if _, err := core.Translate(f, core.Options{Level: core.Level3}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
