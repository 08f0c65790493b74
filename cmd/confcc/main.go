// confcc is the ConfLLVM compiler driver: it compiles miniC sources
// (annotated with the `private` qualifier), links them into a U image and
// optionally verifies, disassembles or saves the result.
//
// Usage:
//
//	confcc [-variant ourseg] [-strict] [-allprivate] [-S] [-o prog.img] file.c...
package main

import (
	"flag"
	"fmt"
	"os"

	"confllvm"
)

func main() {
	variant := flag.String("variant", "ourseg", "configuration: "+confllvm.VariantNames())
	strict := flag.Bool("strict", false, "reject branching on private data (implicit-flow-free mode)")
	allPrivate := flag.Bool("allprivate", false, "all-private (SGX enclave) mode")
	dumpAsm := flag.Bool("S", false, "print the assembly listing")
	out := flag.String("o", "", "write the linked image to this path")
	noVerify := flag.Bool("no-verify", false, "skip ConfVerify on the output")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "confcc: no input files")
		os.Exit(2)
	}
	v, err := confllvm.ParseVariant(*variant)
	if err != nil {
		fatal(err)
	}
	art, err := confllvm.CompileFiles(flag.Args(), v, confllvm.Program{
		Strict:     *strict,
		AllPrivate: *allPrivate,
	})
	if err != nil {
		fatal(err)
	}
	for _, w := range art.Warnings {
		fmt.Fprintln(os.Stderr, "confcc:", w)
	}
	if !*noVerify && v.Checked() {
		if err := confllvm.Verify(art); err != nil {
			fatal(fmt.Errorf("output failed verification (compiler bug?): %w", err))
		}
		fmt.Fprintln(os.Stderr, "confcc: ConfVerify passed")
	}
	if *dumpAsm {
		fmt.Print(confllvm.Disassemble(art))
	}
	if *out != "" {
		if err := art.SaveFile(*out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "confcc: wrote %s (%d bytes of code)\n", *out, len(art.Image.Code))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "confcc:", err)
	os.Exit(1)
}
