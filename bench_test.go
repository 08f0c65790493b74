// bench_test.go holds the toolchain benchmarks: compiler and verifier
// host speed on the benchmark programs. The paper's evaluation tables
// (§7 figures and the §5.1 MPX ablation) are rendered by cmd/confbench
// alone.
//
//	go test -run=NONE -bench='BenchmarkCompile|BenchmarkVerify' -benchmem .
package confllvm_test

import (
	"testing"

	"confllvm"
	"confllvm/internal/bench"
)

func BenchmarkCompile(b *testing.B) {
	prog := confllvm.Program{Sources: []confllvm.Source{
		{Name: "web.c", Code: bench.WebServerSrc},
		{Name: "ulib.c", Code: bench.ULib},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := confllvm.Compile(prog, confllvm.VariantMPX); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileMatrix is one pass of the repository benchmark's
// compile workload: every benchmark program under Base, OurMPX and OurSeg,
// with the verify gate on the checked variants.
func BenchmarkCompileMatrix(b *testing.B) {
	variants := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantSeg}
	var progs [][]confllvm.Program
	for _, wl := range bench.Workloads(false) {
		var row []confllvm.Program
		for _, v := range variants {
			row = append(row, wl.Prog(v))
		}
		progs = append(progs, row)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range progs {
			for j, v := range variants {
				art, err := confllvm.Compile(row[j], v)
				if err != nil {
					b.Fatal(err)
				}
				if v.Checked() {
					if err := confllvm.Verify(art); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	prog := confllvm.Program{Sources: []confllvm.Source{
		{Name: "web.c", Code: bench.WebServerSrc},
		{Name: "ulib.c", Code: bench.ULib},
	}}
	art, err := confllvm.Compile(prog, confllvm.VariantMPX)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := confllvm.Verify(art); err != nil {
			b.Fatal(err)
		}
	}
}
