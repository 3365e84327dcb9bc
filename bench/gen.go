package main

// Seeded program generators and their Go reference implementations.
//
// Every generator takes the benchmark seed and returns TC32 assembly
// together with the debug-port output an independent Go implementation
// of the same algorithm computes. The seed changes the data a program
// works on (tables, pairs, the sieve limit) but never its shape: table
// sizes, trip counts and step budgets are constants, so the simulated
// work of a workload is the same to within a percent on every seed and
// host-time metrics stay comparable across seeds.

import (
	"fmt"
	"strings"

	"repro/internal/socbus"
)

// rng is splitmix64: tiny, seedable, and defined here so generated
// programs never change with the Go release.
type rng uint64

func newRNG(seed int64, stream string) *rng {
	r := rng(uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567)
	for _, c := range stream {
		r = rng(uint64(r)*1099511628211 ^ uint64(c))
	}
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// sample returns a signed value in [-amp, amp).
func (r *rng) sample(amp int32) int32 { return int32(r.intn(int(2*amp))) - amp }

// program is one generated single-core program.
type program struct {
	name     string
	source   string
	expected []uint32 // Go reference debug-port output
}

// prologue sets the stack and the debug port pointer (a15), as every
// program of the repo does.
const prologue = `	.text
	.global _start
_start:	movh.a	sp, 0x1010
	la	a15, 0xF0000F00
`

func emit(rd int) string { return fmt.Sprintf("\tst.w\td%d, 0(a15)\n", rd) }

func wordTable(label string, vals []int32) string {
	var b strings.Builder
	b.WriteString(label + ":")
	for i, v := range vals {
		switch {
		case i%8 == 0 && i > 0:
			b.WriteString("\n\t.word\t")
		case i%8 == 0:
			b.WriteString("\t.word\t")
		default:
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString("\n")
	return b.String()
}

func mul32(a, b int32) int32 { return int32(uint32(a) * uint32(b)) }

// sizes scales every generator; smokeSizes keeps the test pass short.
type sizes struct {
	sieveN               int // sieve limit (seed adds < 1%)
	gcdSteps             int // subtractive-Euclid step budget
	firTaps, firSamples  int
	firPasses            int
	sbPairs, sbPasses    int
	coldPrograms         int // cold.translate programs per round
	coldMinInsts         int // static size of the smallest / largest
	coldMaxInsts         int
	socSieveN            int // per-core sieve limit of the sharded sieve
	socPingPongRounds    int
	serveBatches         int // serve.mixed batches per round
	serveTenants         int
	probeLoadStoreCalls  int
	probeCacheHitCalls   int
	probeStoreJournalOps int
}

var fullSizes = sizes{
	sieveN:               52000,
	gcdSteps:             300000,
	firTaps:              16,
	firSamples:           512,
	firPasses:            17,
	sbPairs:              1024,
	sbPasses:             23,
	coldPrograms:         12,
	coldMinInsts:         2000,
	coldMaxInsts:         8000,
	socSieveN:            24000,
	socPingPongRounds:    1500,
	serveBatches:         200,
	serveTenants:         64,
	probeLoadStoreCalls:  2_000_000,
	probeCacheHitCalls:   200_000,
	probeStoreJournalOps: 24,
}

var smokeSizes = sizes{
	sieveN:               600,
	gcdSteps:             800,
	firTaps:              8,
	firSamples:           24,
	firPasses:            2,
	sbPairs:              16,
	sbPasses:             2,
	coldPrograms:         3,
	coldMinInsts:         150,
	coldMaxInsts:         400,
	socSieveN:            300,
	socPingPongRounds:    4,
	serveBatches:         12,
	serveTenants:         6,
	probeLoadStoreCalls:  2000,
	probeCacheHitCalls:   200,
	probeStoreJournalOps: 2,
}

// --- sieve ---------------------------------------------------------------

const sieveBody = `	movi	d0, 0
	mov	d2, d1
	lea	a3, 0(a2)
clear:	st.b	d0, 0(a3)
	addi.a	a3, a3, 1
	addi	d2, d2, -1
	jnz	d2, clear
	movi	d3, 2		; i
	movi	d7, 0		; prime count
outer:	mov.a	a4, d3
	add.a	a4, a2, a4
	ld.bu	d5, 0(a4)
	jnz	d5, next	; composite
%s	mul	d4, d3, d3	; j = i*i
	jgeu	d4, d1, next	; unsigned: i*i fits 32 bits for n < 65536
	movi	d6, 1
inner:	mov.a	a5, d4
	add.a	a5, a2, a5
	st.b	d6, 0(a5)
	add	d4, d4, d3
	jlt	d4, d1, inner
next:	addi	d3, d3, 1
	jlt	d3, d1, outer
`

// genSieve is the control-flow dominated kernel: many small blocks.
func genSieve(seed int64, sz sizes) program {
	n := sz.sieveN + newRNG(seed, "sieve").intn(sz.sieveN/128+1)
	src := prologue + fmt.Sprintf("\tla\ta2, flags\n\tli\td1, %d\n", n) +
		fmt.Sprintf(sieveBody, "\taddi\td7, d7, 1\n") + emit(7) +
		fmt.Sprintf("\thalt\n\t.bss\nflags:\t.space\t%d\n", n)
	return program{name: "sieve", source: src, expected: []uint32{uint32(primesIn(n, 0, n))}}
}

// primesIn counts the primes below n that lie in [lo, hi).
func primesIn(n, lo, hi int) int {
	composite := make([]bool, n)
	count := 0
	for i := 2; i < n; i++ {
		if composite[i] {
			continue
		}
		if i >= lo && i < hi {
			count++
		}
		for j := i * i; j < n; j += i {
			composite[j] = true
		}
	}
	return count
}

// --- gcd batch -----------------------------------------------------------

// gcdMaxPairSteps bounds one pair's chain so the step budget is met to
// within a percent whatever the seed draws.
const gcdMaxPairSteps = 2000

func gcdSteps(a, b int32) (g int32, steps int) {
	for a != b {
		if a > b {
			a -= b
		} else {
			b -= a
		}
		steps++
	}
	return a, steps
}

// genGCD is the second control-flow dominated kernel: subtractive
// Euclid over a seeded pair table, drawn until the step budget is spent.
func genGCD(seed int64, sz sizes) program {
	r := newRNG(seed, "gcd")
	var flat []int32
	var sum uint32
	for total := 0; total < sz.gcdSteps; {
		a, b := int32(1+r.intn(60000)), int32(1+r.intn(60000))
		g, steps := gcdSteps(a, b)
		if steps > gcdMaxPairSteps {
			continue
		}
		total += steps
		flat = append(flat, a, b)
		sum = sum*33 + uint32(g)
	}
	src := prologue + fmt.Sprintf(`	la	a2, pairs
	movi	d8, 0		; checksum
	li	d9, %d		; pairs
pair:	ld.w	d0, 0(a2)
	ld.w	d1, 4(a2)
	call	gcd
	shli	d2, d8, 5
	add	d8, d8, d2	; checksum *= 33
	add	d8, d8, d0
	addi.a	a2, a2, 8
	addi	d9, d9, -1
	jnz	d9, pair
`, len(flat)/2) + emit(8) + `	halt
gcd:	jeq	d0, d1, gcd_done
	jlt	d0, d1, gcd_b
	sub	d0, d0, d1
	j	gcd
gcd_b:	sub	d1, d1, d0
	j	gcd
gcd_done:
	ret
	.data
` + wordTable("pairs", flat)
	return program{name: "gcd-batch", source: src, expected: []uint32{sum}}
}

// --- fir -----------------------------------------------------------------

// genFIR is the medium-block filter kernel. Each pass slides the input
// window by one sample, so passes compute different sums.
func genFIR(seed int64, sz sizes) program {
	r := newRNG(seed, "fir")
	input := make([]int32, sz.firSamples+sz.firTaps+sz.firPasses)
	for i := range input {
		input[i] = r.sample(512)
	}
	coeff := make([]int32, sz.firTaps)
	for i := range coeff {
		coeff[i] = r.sample(128)
	}
	src := prologue + fmt.Sprintf(`	la	a2, input
	la	a3, coeff
	movi	d8, 0		; checksum
	li	d11, %d		; passes
	li	d9, %d		; samples
pass:	movi	d10, 0
sample:	shli	d3, d10, 2
	mov.a	a4, d3
	add.a	a4, a2, a4
	lea	a5, 0(a3)
	movi	d0, 0
	movi	d2, %d		; taps
tap:	ld.w	d4, 0(a4)
	ld.w	d5, 0(a5)
	mul	d4, d4, d5
	add	d0, d0, d4
	addi.a	a4, a4, 4
	addi.a	a5, a5, 4
	addi	d2, d2, -1
	jnz	d2, tap
	sari	d0, d0, 6
	add	d8, d8, d0
	addi	d10, d10, 1
	jlt	d10, d9, sample
	addi.a	a2, a2, 4	; slide the window
	addi	d11, d11, -1
	jnz	d11, pass
`, sz.firPasses, sz.firSamples, sz.firTaps) + emit(8) + "\thalt\n\t.data\n" +
		wordTable("input", input) + wordTable("coeff", coeff)

	var sum int32
	for p := 0; p < sz.firPasses; p++ {
		for i := 0; i < sz.firSamples; i++ {
			var acc int32
			for t := range coeff {
				acc += mul32(input[p+i+t], coeff[t])
			}
			sum += acc >> 6
		}
	}
	return program{name: "fir", source: src, expected: []uint32{uint32(sum)}}
}

// --- subband -------------------------------------------------------------

const sbTaps = 8

// genSubband is the large-block kernel: one unrolled 8-tap low/high band
// computation (~50 straight-line instructions) per output pair.
func genSubband(seed int64, sz sizes) program {
	r := newRNG(seed, "subband")
	input := make([]int32, 2*sz.sbPairs+sbTaps+sz.sbPasses)
	for i := range input {
		input[i] = r.sample(1024)
	}
	coeff := make([]int32, sbTaps)
	for i := range coeff {
		coeff[i] = r.sample(256)
	}
	var b strings.Builder
	b.WriteString(prologue)
	fmt.Fprintf(&b, `	la	a2, input
	la	a3, coeff
	movi	d5, 0		; checksum
	li	d9, %d		; passes
	li	d7, %d		; pairs
pass:	movi	d6, 0
pair:	shli	d8, d6, 3
	mov.a	a4, d8
	add.a	a4, a2, a4
	movi	d0, 0		; low band
	movi	d1, 0		; high band
`, sz.sbPasses, sz.sbPairs)
	for i := 0; i < sbTaps; i++ {
		fmt.Fprintf(&b, "\tld.w\td2, %d(a4)\n\tld.w\td3, %d(a3)\n\tmul\td4, d2, d3\n\tadd\td0, d0, d4\n", 4*i, 4*i)
		if i%2 == 0 {
			b.WriteString("\tadd\td1, d1, d4\n")
		} else {
			b.WriteString("\tsub\td1, d1, d4\n")
		}
	}
	b.WriteString(`	sari	d0, d0, 4
	sari	d1, d1, 4
	add	d5, d5, d0
	add	d5, d5, d1
	addi	d6, d6, 1
	jlt	d6, d7, pair
	addi.a	a2, a2, 4	; slide the window
	addi	d9, d9, -1
	jnz	d9, pass
`)
	b.WriteString(emit(5) + "\thalt\n\t.data\n" + wordTable("input", input) + wordTable("coeff", coeff))

	var sum int32
	for p := 0; p < sz.sbPasses; p++ {
		for k := 0; k < sz.sbPairs; k++ {
			var low, high int32
			for i := 0; i < sbTaps; i++ {
				v := mul32(input[p+2*k+i], coeff[i])
				low += v
				if i%2 == 0 {
					high += v
				} else {
					high -= v
				}
			}
			sum += low>>4 + high>>4
		}
	}
	return program{name: "subband", source: b.String(), expected: []uint32{uint32(sum)}}
}

// hotKernels is the paper's program mix, scaled: two control-flow
// dominated programs, a filter, and a large-block audio kernel.
func hotKernels(seed int64, sz sizes) []program {
	return []program{genSieve(seed, sz), genGCD(seed, sz), genFIR(seed, sz), genSubband(seed, sz)}
}

// --- multi-core programs -------------------------------------------------

// multiProgram is one SoC workload: a program per core.
type multiProgram struct {
	name  string
	cores []program
}

func mcPrologue() string {
	return prologue + fmt.Sprintf("\tla\ta12, %#x\n\tla\ta13, %#x\n\tla\ta14, %#x\n",
		uint32(socbus.SharedRAMBase), uint32(socbus.MailboxBase), uint32(socbus.CounterBase))
}

// genShardedSieve: every core sieves [0,n) privately, counts the primes
// of its own shard, publishes the count in shared memory and arrives at
// a counter barrier; core 0 then reduces the shard counts.
func genShardedSieve(seed int64, sz sizes, cores int) multiProgram {
	n := sz.socSieveN + newRNG(seed, "mc-sieve").intn(sz.socSieveN/128+1)
	mp := multiProgram{name: "mc-sieve"}
	total := primesIn(n, 2, n)
	for c := 0; c < cores; c++ {
		lo, hi := 2+c*(n-2)/cores, 2+(c+1)*(n-2)/cores
		src := mcPrologue() + fmt.Sprintf("\tla\ta2, flags\n\tli\td1, %d\n\tli\td8, %d\n\tli\td9, %d\n", n, lo, hi) +
			fmt.Sprintf(sieveBody, "\tjlt\td3, d8, mark\n\tjge\td3, d9, mark\n\taddi\td7, d7, 1\nmark:") +
			emit(7) + fmt.Sprintf("\tst.w\td7, %d(a12)\n\tmovi\td0, 1\n\tst.w\td0, 0(a14)\n", 4*c)
		expected := []uint32{uint32(primesIn(n, lo, hi))}
		if c == 0 {
			src += fmt.Sprintf("\tli\td1, %d\nbarr:\tld.w\td0, 0(a14)\n\tjne\td0, d1, barr\n\tmovi\td2, 0\n", cores)
			for k := 0; k < cores; k++ {
				src += fmt.Sprintf("\tld.w\td0, %d(a12)\n\tadd\td2, d2, d0\n", 4*k)
			}
			src += emit(2)
			expected = append(expected, uint32(total))
		}
		src += fmt.Sprintf("\thalt\n\t.bss\nflags:\t.space\t%d\n", n)
		mp.cores = append(mp.cores, program{name: fmt.Sprintf("mc-sieve.c%d", c), source: src, expected: expected})
	}
	return mp
}

// genPingPong passes a token around the core ring through the
// mailboxes: core 0 seeds it, every core polls its doorbell, pops,
// increments and posts to the next core; each core emits the last token
// it saw.
func genPingPong(seed int64, sz sizes, cores int) multiProgram {
	token := 1 + newRNG(seed, "mc-pingpong").intn(1000)
	rounds := sz.socPingPongRounds
	mp := multiProgram{name: "mc-pingpong"}
	for c := 0; c < cores; c++ {
		next := (c + 1) % cores
		mine, nexts := c*socbus.SlotStride, next*socbus.SlotStride
		src := mcPrologue()
		if c == 0 {
			src += fmt.Sprintf(`	li	d0, %d
	st.w	d0, %d(a13)	; seed the token
	li	d6, %d		; rounds
	movi	d5, 0
recv:	ld.w	d0, %d(a13)	; poll own doorbell
	jz	d0, recv
	ld.w	d1, %d(a13)	; pop
	addi	d5, d5, 1
	jge	d5, d6, done	; last round: keep it
	addi	d0, d1, 1
	st.w	d0, %d(a13)	; forward
	j	recv
done:
`, token, nexts, rounds, mine+4, mine, nexts)
		} else {
			src += fmt.Sprintf(`	li	d6, %d		; rounds
	movi	d5, 0
recv:	ld.w	d0, %d(a13)	; poll own doorbell
	jz	d0, recv
	ld.w	d1, %d(a13)	; pop
	addi	d0, d1, 1
	st.w	d0, %d(a13)	; forward
	addi	d5, d5, 1
	jlt	d5, d6, recv
`, rounds, mine+4, mine, nexts)
		}
		src += emit(1) + "\thalt\n"
		// The seed value reaches core c in round r after (r-1)*cores + c
		// increments (core 0: r*cores, having gone all the way round).
		last := uint32(token - 1 + rounds*cores)
		if c > 0 {
			last = uint32(token - 1 + (rounds-1)*cores + c)
		}
		mp.cores = append(mp.cores, program{name: fmt.Sprintf("mc-pingpong.c%d", c), source: src, expected: []uint32{last}})
	}
	return mp
}
