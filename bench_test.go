// bench_test.go regenerates every table and figure of the paper's
// evaluation (§7). Each figure is one benchmark family; the configuration
// columns are sub-benchmarks. Per-op metrics are *simulated* cycles from
// the machine's cost model ("simcyc"), and when a figure's last column
// finishes, the paper-style percent-of-base table is printed.
//
//	go test -bench=. -benchmem ./...
package confllvm_test

import (
	"fmt"
	"sync"
	"testing"

	"confllvm"
	"confllvm/internal/bench"
)

var (
	tableMu sync.Mutex
	tables  = map[string]*bench.Table{}
)

func record(figure, row string, cols []confllvm.Variant, unit string,
	v confllvm.Variant, cycles uint64, lastRow bool) {
	tableMu.Lock()
	defer tableMu.Unlock()
	t, ok := tables[figure]
	if !ok {
		t = bench.NewTable(figure, cols, unit)
		tables[figure] = t
	}
	t.Set(row, v, cycles)
	if v == cols[len(cols)-1] && lastRow {
		fmt.Printf("\n%s\n", t)
	}
}

// ---- Figure 5: SPEC CPU overhead ----

func BenchmarkFig5SPEC(b *testing.B) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantBaseOA,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPX, confllvm.VariantSeg}
	kernels := bench.SPECKernels()
	for _, v := range cols {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, k := range kernels {
					m, err := bench.RunSPEC(k, v)
					if err != nil {
						b.Fatal(err)
					}
					total += m.Wall
					record("Figure 5: SPEC CPU execution time (% of Base)",
						k.Name, cols, "cyc", v, m.Wall, k.Name == kernels[len(kernels)-1].Name)
				}
			}
			b.ReportMetric(float64(total), "simcyc/op")
		})
	}
}

// ---- Figure 6: NGINX sustained throughput vs response size ----

func BenchmarkFig6NGINX(b *testing.B) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantOneMem,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPXSep, confllvm.VariantMPX}
	sizes := []int{0, 1, 5, 10, 20, 40} // KB
	const reqs = 24
	for _, kb := range sizes {
		for _, v := range cols {
			kb, v := kb, v
			b.Run(fmt.Sprintf("%dKB/%v", kb, v), func(b *testing.B) {
				var wall uint64
				for i := 0; i < b.N; i++ {
					m, err := bench.RunWebServer(v, reqs, kb*1024)
					if err != nil {
						b.Fatal(err)
					}
					wall = m.Wall
				}
				// Throughput: requests per gigacycle (bigger = better).
				thr := float64(reqs) / float64(wall) * 1e9
				b.ReportMetric(thr, "req/Gcyc")
				b.ReportMetric(float64(wall), "simcyc/op")
				tbl := "Figure 6: NGINX throughput (% of Base; cells are cycles/request, lower is better)"
				record(tbl, fmt.Sprintf("resp-%02dKB", kb), cols, "cyc/req",
					v, wall/uint64(reqs), kb == sizes[len(sizes)-1])
			})
		}
	}
}

// ---- §7.3: OpenLDAP throughput (hit and miss workloads) ----

func BenchmarkLDAP(b *testing.B) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX}
	const queries = 600
	for _, mode := range []struct {
		name string
		miss int
	}{{"miss", 100}, {"hit", 0}} {
		for _, v := range cols {
			mode, v := mode, v
			b.Run(fmt.Sprintf("%s/%v", mode.name, v), func(b *testing.B) {
				var wall uint64
				for i := 0; i < b.N; i++ {
					m, err := bench.RunLDAP(v, queries, mode.miss)
					if err != nil {
						b.Fatal(err)
					}
					wall = m.Wall
				}
				b.ReportMetric(float64(queries)/float64(wall)*1e9, "req/Gcyc")
				record("Section 7.3: OpenLDAP time per query (% of Base)",
					"query-"+mode.name, cols, "cyc/q", v, wall/queries, mode.name == "hit")
			})
		}
	}
}

// ---- Figure 7: Privado/SGX classification latency ----

func BenchmarkFig7Privado(b *testing.B) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantBaseOA,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPX}
	const images = 2
	for _, v := range cols {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			var wall uint64
			for i := 0; i < b.N; i++ {
				m, err := bench.RunClassifier(v, images)
				if err != nil {
					b.Fatal(err)
				}
				wall = m.Wall
			}
			b.ReportMetric(float64(wall)/images, "simcyc/image")
			record("Figure 7: Privado classification latency (% of Base)",
				"classify", cols, "cyc/img", v, wall/images, true)
		})
	}
}

// ---- Figure 8: Merkle-FS parallel read scaling ----

func BenchmarkFig8Merkle(b *testing.B) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantSeg, confllvm.VariantMPX}
	const fileKB = 256
	threads := []int{1, 2, 3, 4, 5, 6}
	for _, n := range threads {
		for _, v := range cols {
			n, v := n, v
			b.Run(fmt.Sprintf("%dthreads/%v", n, v), func(b *testing.B) {
				var wall uint64
				for i := 0; i < b.N; i++ {
					m, err := bench.RunMerkle(v, fileKB, n)
					if err != nil {
						b.Fatal(err)
					}
					wall = m.Wall
				}
				b.ReportMetric(float64(wall), "simcyc/op")
				record("Figure 8: Merkle-FS parallel read time (% of Base)",
					fmt.Sprintf("%d-threads", n), cols, "cyc", v, wall,
					n == threads[len(threads)-1])
			})
		}
	}
}

// ---- Ablation: the §5.1 MPX optimizations ----

func BenchmarkAblationMPXNaive(b *testing.B) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantMPXNaive}
	kernels := bench.SPECKernels()[:4] // a representative subset
	for _, v := range cols {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, k := range kernels {
					m, err := bench.RunSPEC(k, v)
					if err != nil {
						b.Fatal(err)
					}
					total += m.Wall
					record("Ablation: MPX check optimizations (% of Base)",
						k.Name, cols, "cyc", v, m.Wall,
						k.Name == kernels[len(kernels)-1].Name)
				}
			}
			b.ReportMetric(float64(total), "simcyc/op")
		})
	}
}

// ---- Toolchain benchmarks: compiler and verifier speed ----

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
