package bench

import (
	"testing"

	"confllvm"
)

func TestLDAPSmoke(t *testing.T) {
	queries := 200
	if testing.Short() {
		queries = 40
	}
	wl := LDAPWorkload(queries, 50)
	for _, v := range []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantSeg} {
		m, err := wl.Run(v, nil)
		if err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
		if len(m.Outputs) != 1 {
			t.Fatalf("[%v] outputs %v", v, m.Outputs)
		}
	}
}

func TestClassifierSmoke(t *testing.T) {
	wl := ClassifierWorkload(2)
	var golden []int64
	for _, v := range []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX} {
		m, err := wl.Run(v, nil)
		if err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
		if golden == nil {
			golden = m.Outputs
		} else if m.Outputs[0] != golden[0] {
			t.Fatalf("classifier outputs differ across variants: %v vs %v", m.Outputs, golden)
		}
	}
}

func TestMerkleSmoke(t *testing.T) {
	fileKB, threads := 64, 3
	if testing.Short() {
		fileKB, threads = 16, 2
	}
	wl := MerkleWorkload(fileKB, threads)
	for _, v := range []confllvm.Variant{confllvm.VariantBase, confllvm.VariantSeg, confllvm.VariantMPX} {
		if _, err := wl.Run(v, nil); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
	}
}
