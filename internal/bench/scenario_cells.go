package bench

import (
	"fmt"
	"sync"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
)

// scenarioWorkload serves one spec's traffic: the program built from
// sources receives the spec's wire trace through the trusted recv and
// must report exactly the predicted output counters. The trace is
// generated once, on first use by World or Check, so a caller that only
// reads Prog never generates it; sync.OnceValues makes that safe for
// concurrent matrix cells. Our grids never fail generation (it validates
// the spec's family), hence the panic. Every World shares the same
// packets — recv copies each one into simulated memory and
// chaos.CorruptPacket returns a corrupted copy — so no run mutates them
// and one trace serves every run of the Workload (pinned by
// TestWireTraceReusable). Check compares the program's output counters
// against the prediction, so a served trace is validated end to end, not
// just fault-free. The scenario families (KV, TLS-ish, Merkle-FS), the
// latency figure and the faults figure all serve their traffic through
// it.
func scenarioWorkload(key string, sources []confllvm.Source, spec scenario.Spec) Workload {
	traffic := sync.OnceValues(func() ([][]byte, []int64) {
		wire, expect, err := scenario.Traffic(spec)
		if err != nil {
			panic(err)
		}
		return wire, expect
	})
	return Workload{
		Key:  key,
		Name: spec.Name,
		Prog: func(confllvm.Variant) confllvm.Program {
			return confllvm.Program{Sources: sources}
		},
		World: func() *confllvm.World {
			wire, _ := traffic()
			w := confllvm.NewWorld()
			w.Params = []int64{int64(len(wire))}
			w.NetIn = wire
			return w
		},
		Check: func(res *confllvm.Result) error {
			_, expect := traffic()
			if len(res.Outputs) != len(expect) {
				return fmt.Errorf("%s: got %d outputs %v, want %d %v",
					spec.Name, len(res.Outputs), res.Outputs, len(expect), expect)
			}
			for i := range expect {
				if res.Outputs[i] != expect[i] {
					return fmt.Errorf("%s: output[%d] = %d, predicted %d (%v vs %v)",
						spec.Name, i, res.Outputs[i], expect[i], res.Outputs, expect)
				}
			}
			return nil
		},
	}
}

// ScenarioWorkload maps a spec to its workload family.
func ScenarioWorkload(spec scenario.Spec) Workload {
	switch spec.Workload {
	case scenario.WorkloadKV:
		return KVWorkload(spec)
	case scenario.WorkloadTLSH:
		return TLSHWorkload(spec)
	case scenario.WorkloadMerkleFS:
		return MerkleFSWorkload(spec)
	}
	panic("bench: unknown scenario workload family " + spec.Workload)
}

// ScenarioCells expands a scenario sweep into matrix cells: one cell per
// (spec, variant), scaled by the spec's total request count so table
// cells read as requests per second. Specs sharing a workload family
// share one artifact per variant through the singleflight cache — only
// the generated traffic differs — so even a 100x grid compiles each
// family exactly once per column. The cells are simulated quantities
// (no Serial pinning): the sweep is byte-identical under any scheduling.
func ScenarioCells(figure string, specs []scenario.Spec, cols []confllvm.Variant, conf *machine.Config) []Cell {
	var cells []Cell
	for _, spec := range specs {
		wl := ScenarioWorkload(spec)
		for _, v := range cols {
			cells = append(cells, Cell{
				Figure: figure, Row: spec.Name, Workload: wl,
				Variant: v, Conf: conf, Scale: uint64(spec.TotalRequests()),
			})
		}
	}
	return cells
}
