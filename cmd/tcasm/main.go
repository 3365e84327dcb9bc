// Command tcasm assembles TC32 assembly into an ELF32 executable — the
// object code the binary translator consumes.
//
// Usage:
//
//	tcasm -o prog.elf prog.s
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/tc32asm"
)

func main() {
	out := flag.String("o", "a.elf", "output ELF file")
	def := tc32asm.DefaultOptions()
	textBase := flag.Uint("text", uint(def.TextBase), "text base address")
	dataBase := flag.Uint("data", uint(def.DataBase), "data base address")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tcasm [-o out.elf] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	f, err := tc32asm.AssembleWith(string(src), tc32asm.Options{
		TextBase: uint32(*textBase),
		DataBase: uint32(*dataBase),
	})
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}
	data, err := f.Marshal()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	text := f.Section(".text")
	fmt.Printf("%s: %d bytes of code at %#x, entry %#x\n",
		*out, len(text.Data), text.Addr, f.Entry)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcasm:", err)
	os.Exit(1)
}
