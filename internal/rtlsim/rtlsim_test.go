package rtlsim

import (
	"strings"
	"testing"

	"repro/internal/iss"
	"repro/internal/tc32"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

func TestFunctionalEquivalenceWithISS(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f, err := tc32asm.Assemble(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := iss.New(f, iss.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			cpu, err := New(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := cpu.Run(0); err != nil {
				t.Fatal(err)
			}
			if cpu.Retired != ref.Arch.Retired {
				t.Errorf("retired %d, want %d", cpu.Retired, ref.Arch.Retired)
			}
			got, want := cpu.Output(), ref.Output()
			if len(got) != len(want) {
				t.Fatalf("output %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("out[%d] = %#x, want %#x", i, got[i], want[i])
				}
			}
			// Multicycle implementation: several cycles per instruction.
			if cpu.Cycle < 4*cpu.Retired {
				t.Errorf("cycle count %d implausibly low for a multicycle core (%d insts)",
					cpu.Cycle, cpu.Retired)
			}
		})
	}
}

func TestRegisterFileEquivalence(t *testing.T) {
	src := `
	.global _start
_start:	movh.a	sp, 0x1010
	movi	d0, 37
	movi	d1, 5
	div	d2, d0, d1
	rem	d3, d0, d1
	min	d4, d0, d1
	max	d5, d0, d1
	movi	d6, -300
	abs	d7, d6
	sext.b	d8, d6
	sext.h	d9, d6
	halt
`
	f, err := tc32asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := iss.New(f, iss.Config{})
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	cpu, _ := New(f)
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	for r := range cpu.R {
		if cpu.R[r] != ref.Arch.R[r] {
			t.Errorf("%v = %#x, want %#x", tc32.Reg(r), cpu.R[r], ref.Arch.R[r])
		}
	}
}

// TestInterruptOpsWithoutSource: ei and di write no register (writing
// back their stale ALU output would clobber d0), and reti and wfi are
// errors on a core with no interrupt source, as on the reference ISS.
func TestInterruptOpsWithoutSource(t *testing.T) {
	for _, op := range []string{"ei", "di"} {
		f, err := tc32asm.Assemble("_start: movi d0, 7\n movi d1, 40\n add d2, d1, d1\n " + op + "\n halt\n")
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := iss.New(f, iss.Config{})
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		cpu, _ := New(f)
		if err := cpu.Run(0); err != nil {
			t.Fatal(err)
		}
		if cpu.R != ref.Arch.R {
			t.Errorf("%s: registers %v, want %v", op, cpu.R[:3], ref.Arch.R[:3])
		}
	}
	for _, op := range []string{"reti", "wfi"} {
		f, err := tc32asm.Assemble("_start: movi d0, 7\n " + op + "\n halt\n")
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := iss.New(f, iss.Config{})
		if err := ref.Run(); err == nil {
			t.Fatalf("%s: the ISS ran it without an interrupt source", op)
		}
		cpu, _ := New(f)
		if err := cpu.Run(0); err == nil || !strings.Contains(err.Error(), op) {
			t.Errorf("%s: rtlsim error %v, want one naming %s", op, err, op)
		}
	}
}

func TestMulticycleTiming(t *testing.T) {
	// One 32-bit ALU op: fetch1+fetch2+decode+execute+writeback = 5.
	f, err := tc32asm.Assemble("_start: movi d0, 1\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := New(f)
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	// movi: 5 cycles; halt: 5 cycles.
	if cpu.Cycle != 10 {
		t.Errorf("cycles = %d, want 10", cpu.Cycle)
	}
	// A 16-bit instruction saves one fetch cycle.
	f2, _ := tc32asm.Assemble("_start: movi16 d0, 1\n halt\n")
	cpu2, _ := New(f2)
	if err := cpu2.Run(0); err != nil {
		t.Fatal(err)
	}
	if cpu2.Cycle != 9 {
		t.Errorf("cycles = %d, want 9", cpu2.Cycle)
	}
}

func TestDividerBusy(t *testing.T) {
	f, _ := tc32asm.Assemble("_start: movi d0, 100\n movi d1, 7\n div d2, d0, d1\n halt\n")
	cpu, _ := New(f)
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	// movi 5 + movi 5 + div (4 + 18 ex + 1 wb = 2+1+18+1=22) + halt 5.
	if cpu.Cycle != 5+5+22+5 {
		t.Errorf("cycles = %d, want 37", cpu.Cycle)
	}
	if cpu.R[tc32.D(2)] != 14 {
		t.Errorf("d2 = %d, want 14", cpu.R[tc32.D(2)])
	}
}
