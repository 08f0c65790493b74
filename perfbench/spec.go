package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/machine"
	"confllvm/internal/verify"
)

// specParams are the benchmark's kernel inputs: mcf and libquantum keep
// their full-size working sets (so they still miss the modeled L1), and
// every kernel runs few enough iterations to stay near a million simulated
// instructions, so a run holds many passes.
var specParams = map[string][]int64{
	"bzip2":      {1 << 12, 1},
	"mcf":        {1 << 11, 1},
	"gobmk":      {19, 70},
	"hmmer":      {160, 40},
	"sjeng":      {5, 8},
	"libquantum": {1 << 12, 3},
	"h264":       {48, 1},
	"milc":       {40, 3},
}

// expectedChecksums holds every kernel's output vector at specParams. It
// is a fixed file, not derived from a run: every variant must match it.
//
//go:embed expected_checksums.json
var expectedChecksumsJSON []byte

func expectedChecksums() (map[string][]int64, error) {
	var m map[string][]int64
	if err := json.Unmarshal(expectedChecksumsJSON, &m); err != nil {
		return nil, fmt.Errorf("expected_checksums.json: %w", err)
	}
	return m, nil
}

// specCell is one (kernel, variant) of the spec-run phase.
type specCell struct {
	kernel bench.SPECKernel
	v      confllvm.Variant
	params []int64
	art    *confllvm.Artifact
	want   []int64

	// ref is the first run's outcome; every later run, traced or not,
	// must repeat its architectural stats and wall cycles exactly.
	ref     *machine.Stats
	refWall uint64
	mips    []float64 // simulated instructions per host µs, per untraced run
}

// specCells compiles the kernels under the given variants through the
// verify gate.
func specCells(variants []confllvm.Variant, linkSeed int64, parallel int, want map[string][]int64) ([]*specCell, error) {
	var cells []*specCell
	for _, k := range bench.SPECKernels() {
		params, ok := specParams[k.Name]
		if !ok {
			return nil, fmt.Errorf("no benchmark input for kernel %s", k.Name)
		}
		exp, ok := want[k.Name]
		if !ok {
			return nil, fmt.Errorf("no expected checksum for kernel %s", k.Name)
		}
		wl := bench.SPECWorkload(k, params)
		for _, v := range variants {
			prog := wl.Prog(v)
			prog.Seed = linkSeed
			art, err := confllvm.Compile(prog, v)
			if err != nil {
				return nil, fmt.Errorf("%s [%v]: compile: %w", k.Name, v, err)
			}
			if art.Verifiable() {
				if _, err := confllvm.VerifyArtifact(art, verify.Options{Parallel: parallel}); err != nil {
					return nil, fmt.Errorf("%s [%v]: verify gate: %w", k.Name, v, err)
				}
			}
			cells = append(cells, &specCell{kernel: k, v: v, params: params, art: art, want: exp})
		}
	}
	return cells, nil
}

// run executes the cell once and checks its outcome against the expected
// checksums and the cell's first run. It returns the host time.
func (c *specCell) run(tr *Tracer) (int64, error) {
	w := confllvm.NewWorld()
	w.Params = c.params
	res, ns, err := execute(c.art, w, tr, "spec")
	if err != nil {
		return 0, fmt.Errorf("%s [%v]: %w", c.kernel.Name, c.v, err)
	}
	if res.Fault != nil {
		return ns, fmt.Errorf("%s [%v]: fault: %v", c.kernel.Name, c.v, res.Fault)
	}
	if !reflect.DeepEqual(res.Outputs, c.want) {
		return ns, fmt.Errorf("%s [%v]: outputs %v, expected %v", c.kernel.Name, c.v, res.Outputs, c.want)
	}
	if c.ref == nil {
		c.ref, c.refWall = &res.Stats, res.WallCycles
	} else if res.Stats.Arch() != c.ref.Arch() || res.WallCycles != c.refWall {
		return ns, fmt.Errorf("%s [%v]: run is not repeatable: stats %+v wall %d, first run %+v wall %d",
			c.kernel.Name, c.v, res.Stats.Arch(), res.WallCycles, c.ref.Arch(), c.refWall)
	}
	return ns, nil
}
