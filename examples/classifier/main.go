// Classifier reproduces the Privado/SGX scenario (paper §7.4): an
// 11-layer neural network compiled in all-private mode, where the model
// weights and the input image live in the enclave's private region and
// only the argmax class index crosses the boundary through the
// declassifier.
package main

import (
	"fmt"
	"log"

	"confllvm"
	"confllvm/internal/bench"
)

func main() {
	const images = 3
	configs := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantBare,
		confllvm.VariantCFI, confllvm.VariantMPX}

	fmt.Println("Privado-style private inference (all data in U marked private)")
	wl := bench.ClassifierWorkload(images)
	var base uint64
	for _, v := range configs {
		m, err := wl.Run(v, nil)
		if err != nil {
			log.Fatalf("[%v] %v", v, err)
		}
		per := m.Wall / images
		if v == confllvm.VariantBase {
			base = per
		}
		fmt.Printf("%-10v  %9d cyc/image (%5.1f%% of Base)  bnd-checks=%d masked-behind-FP=%d\n",
			v, per, float64(per)/float64(base)*100, m.Stats.BndChecks, m.Stats.BndMasked)
		fmt.Printf("            declassified classes: %v\n", m.Outputs)
	}
	fmt.Println("\nnote how most MPX checks hide behind the FP pipeline (Fig. 7's effect)")
}
