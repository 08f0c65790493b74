package verify_test

import (
	"runtime"
	"testing"

	"confllvm"
	"confllvm/internal/link"
	"confllvm/internal/verify"
)

// benchImage compiles the benchmark corpus once; every sub-benchmark
// verifies the same image.
var benchImage = func() func(b *testing.B) *link.Image {
	var img *link.Image
	return func(b *testing.B) *link.Image {
		b.Helper()
		if img == nil {
			art, err := confllvm.Compile(confllvm.Program{
				Sources: []confllvm.Source{{Name: "t.c", Code: testProg}},
			}, confllvm.VariantMPX)
			if err != nil {
				b.Fatalf("compile: %v", err)
			}
			img = art.Image
		}
		return img
	}
}()

func benchVerify(b *testing.B, opts verify.Options) {
	img := benchImage(b)
	stats, err := verify.VerifyStats(img, opts)
	if err != nil {
		b.Fatalf("verify: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verify.VerifyStats(img, opts); err != nil {
			b.Fatalf("verify: %v", err)
		}
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(stats.Funcs*b.N)/sec, "funcs/s")
		b.ReportMetric(float64(stats.Insts*b.N)/sec, "insts/s")
	}
}

// BenchmarkVerify measures the verifier end to end: serial vs parallel
// worker pools. funcs/s and insts/s are reported as custom metrics;
// confbench's verify figure reports the same quantities from the harness
// side.
func BenchmarkVerify(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		benchVerify(b, verify.Options{})
	})
	b.Run("parallel", func(b *testing.B) {
		benchVerify(b, verify.Options{Parallel: runtime.NumCPU()})
	})
}
