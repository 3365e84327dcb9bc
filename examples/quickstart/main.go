// Quickstart: assemble a small TC32 program, run it on the reference
// simulator (the "evaluation board"), translate it with cycle annotation,
// run the translation on the emulation platform, and compare both clocks.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

const program = `
	.text
	.global _start
_start:	movh.a	sp, 0x1010	; stack
	la	a15, 0xF0000F00	; debug output port
	movi	d0, 0		; sum
	movi	d1, 1		; i
	movi	d2, 100		; limit
loop:	add	d0, d0, d1
	addi	d1, d1, 1
	jge	d2, d1, loop
	st.w	d0, 0(a15)	; print sum(1..100)
	halt
`

func main() {
	elf, err := repro.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}

	// Reference run: the source processor with its pipeline and caches.
	ref, err := repro.RunReference(elf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("board:    sum = %d in %d instructions, %d cycles (%.2f CPI)\n",
		ref.Output[0], ref.Stats.Retired, ref.Stats.Cycles,
		float64(ref.Stats.Cycles)/float64(ref.Stats.Retired))

	// Translate at every detail level and run on the platform.
	for _, level := range repro.AllLevels() {
		prog, err := repro.Translate(elf, level)
		if err != nil {
			log.Fatal(err)
		}
		res, err := repro.RunTranslated(prog)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s sum = %d, %6d C6x cycles, %5d generated cycles",
			level.String()+":", res.Output[0], res.Stats.C6xCycles, res.Stats.GeneratedCycles)
		if level >= repro.Level1 {
			dev := 100 * float64(res.Stats.GeneratedCycles-ref.Stats.Cycles) / float64(ref.Stats.Cycles)
			fmt.Printf(" (%+.1f%% vs board)", dev)
		}
		fmt.Println()
	}
}
