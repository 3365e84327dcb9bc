// Package tc32asm implements a two-pass assembler for the TC32
// architecture, producing ELF32 executables. It plays the role of the
// TriCore C compiler tool-chain in the paper's evaluation: the binary
// translator only ever sees the resulting object code.
//
// Syntax overview (see internal/workload for complete programs):
//
//	; comment       # comment       // comment
//	        .text
//	        .global _start
//	_start: movi    d0, 10          ; d0 = 10
//	        la      a2, table       ; pseudo: movh.a + lea
//	loop:   ld.w    d1, 4(a2)
//	        jne     d0, d1, loop
//	        st.w    d0, 0xF00(a15)
//	        halt
//	        .data
//	table:  .word   1, 2, 3
//	        .half   4
//	        .byte   5
//	        .asciz  "hello"
//	        .align  4
//	        .bss
//	buf:    .space  64
package tc32asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/tc32"
)

// Options configure section placement.
type Options struct {
	TextBase uint32 // default 0
	DataBase uint32 // default iss.RAMBase
}

// DefaultOptions returns the standard TC32 memory layout: text at 0 and
// .data at the base of the source system's RAM window.
func DefaultOptions() Options {
	return Options{TextBase: 0, DataBase: iss.RAMBase}
}

// Error is an assembly error annotated with the source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
	secBss
	numSections
)

var sectionNames = [numSections]string{".text", ".data", ".bss"}

// expr is a deferred expression: an optional hi/lo modifier around a sum
// of terms (numbers and symbols).
type expr struct {
	mod   string // "", "hi", "lo"
	terms []term
}

type term struct {
	neg bool
	sym string // symbol name, or "" for a literal
	val int64
}

func (e expr) isConst() bool {
	for _, t := range e.terms {
		if t.sym != "" {
			return false
		}
	}
	return true
}

type symdef struct {
	section section
	offset  uint32
	line    int
}

// entry is one assembled item: an instruction or a data run.
type entry struct {
	line    int
	size    uint32
	offset  uint32 // within section
	section section
	inst    *tc32.Inst // nil for data
	// Deferred operand expressions, applied in pass 2.
	imm    *expr
	branch bool // imm is a branch target (absolute address -> displacement)
	data   []dataItem
}

type dataItem struct {
	width int // 1, 2, 4; 0 = raw bytes
	e     expr
	raw   []byte
}

type assembler struct {
	opts    Options
	entries []entry
	symbols map[string]symdef
	globals map[string]bool
	loc     [numSections]uint32
	cur     section
	line    int
}

// Assemble assembles src into an ELF32 file using the default layout.
func Assemble(src string) (*elf32.File, error) {
	return AssembleWith(src, DefaultOptions())
}

// AssembleWith assembles src with explicit options.
func AssembleWith(src string, opts Options) (*elf32.File, error) {
	a := &assembler{
		opts:    opts,
		symbols: map[string]symdef{},
		globals: map[string]bool{},
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' {
			inStr = !inStr
		}
		if inStr {
			continue
		}
		if c == ';' || c == '#' {
			return s[:i]
		}
		if c == '/' && i+1 < len(s) && s[i+1] == '/' {
			return s[:i]
		}
	}
	return s
}

func (a *assembler) pass1(src string) error {
	for n, raw := range strings.Split(src, "\n") {
		a.line = n + 1
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		// Labels (possibly several) at line start.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			head := strings.TrimSpace(line[:idx])
			if !isIdent(head) {
				break
			}
			if _, dup := a.symbols[head]; dup {
				return a.errf("duplicate label %q", head)
			}
			a.symbols[head] = symdef{section: a.cur, offset: a.loc[a.cur], line: a.line}
			line = strings.TrimSpace(line[idx+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if err := a.directive(line); err != nil {
				return err
			}
			continue
		}
		if err := a.instruction(line); err != nil {
			return err
		}
	}
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			if !inStr {
				depth++
			}
		case ')':
			if !inStr {
				depth--
			}
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func (a *assembler) directive(line string) error {
	name := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		name, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	name = strings.ToLower(name)
	switch name {
	case ".text":
		a.cur = secText
	case ".data":
		a.cur = secData
	case ".bss":
		a.cur = secBss
	case ".global", ".globl":
		if !isIdent(rest) {
			return a.errf("bad symbol in %s", name)
		}
		a.globals[rest] = true
	case ".align":
		n, err := strconv.ParseUint(rest, 0, 32)
		if err != nil || n == 0 || n&(n-1) != 0 {
			return a.errf(".align needs a power-of-two argument")
		}
		pad := (uint32(n) - a.loc[a.cur]%uint32(n)) % uint32(n)
		if pad > 0 {
			a.addData([]dataItem{{raw: make([]byte, pad)}}, pad)
		}
	case ".space", ".skip":
		n, err := strconv.ParseUint(rest, 0, 32)
		if err != nil {
			return a.errf(".space needs a size")
		}
		a.addData([]dataItem{{raw: make([]byte, n)}}, uint32(n))
	case ".word", ".half", ".byte":
		if a.cur == secBss {
			return a.errf("%s not allowed in .bss", name)
		}
		width := map[string]int{".word": 4, ".half": 2, ".byte": 1}[name]
		var items []dataItem
		for _, arg := range splitArgs(rest) {
			e, err := a.parseExpr(arg)
			if err != nil {
				return err
			}
			items = append(items, dataItem{width: width, e: e})
		}
		if len(items) == 0 {
			return a.errf("%s needs at least one value", name)
		}
		a.addData(items, uint32(len(items)*width))
	case ".asciz", ".ascii":
		if a.cur == secBss {
			return a.errf("%s not allowed in .bss", name)
		}
		s, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf("bad string literal %s", rest)
		}
		b := []byte(s)
		if name == ".asciz" {
			b = append(b, 0)
		}
		a.addData([]dataItem{{raw: b}}, uint32(len(b)))
	case ".org":
		n, err := strconv.ParseUint(rest, 0, 32)
		if err != nil {
			return a.errf(".org needs an address")
		}
		if uint32(n) < a.loc[a.cur] {
			return a.errf(".org cannot move backwards")
		}
		pad := uint32(n) - a.loc[a.cur]
		if pad > 0 {
			a.addData([]dataItem{{raw: make([]byte, pad)}}, pad)
		}
	default:
		return a.errf("unknown directive %s", name)
	}
	return nil
}

func (a *assembler) addData(items []dataItem, size uint32) {
	a.entries = append(a.entries, entry{
		line: a.line, size: size, offset: a.loc[a.cur], section: a.cur, data: items,
	})
	a.loc[a.cur] += size
}

func (a *assembler) addInst(inst tc32.Inst, imm *expr, branch bool) {
	size := uint32(tc32.EncodedSize(inst.Op))
	a.entries = append(a.entries, entry{
		line: a.line, size: size, offset: a.loc[a.cur], section: a.cur,
		inst: &inst, imm: imm, branch: branch,
	})
	a.loc[a.cur] += size
}
