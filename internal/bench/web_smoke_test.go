package bench

import (
	"testing"

	"confllvm"
)

func TestWebSmoke(t *testing.T) {
	reqs, size := 5, 2048
	if testing.Short() {
		reqs, size = 3, 512
	}
	wl := WebWorkload(reqs, size)
	for _, v := range confllvm.AllVariants() {
		m, err := wl.Run(v, nil)
		if err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
		if len(m.Res.NetOut) != reqs {
			t.Fatalf("[%v] %d responses", v, len(m.Res.NetOut))
		}
	}
}
