package bench

import (
	"fmt"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
)

// This file is the one serving path for wire traces. wireWorkload turns
// a fixed packet stream and its predicted output counters into an
// ordinary Workload; the scenario families (KV, TLS-ish, Merkle-FS), each
// cluster shard, the latency figure and the faults figure all serve
// their traffic through it.

// wireWorkload serves a fixed wire trace: the program built from sources
// receives wire through the trusted recv and must report exactly expect.
// Every World shares the same packets — recv copies each one into
// simulated memory and chaos.CorruptPacket returns a corrupted copy — so
// no run mutates them and the trace is generated once per Workload
// (pinned by TestWireTraceReusable). Check compares the program's output
// counters against the prediction, so a served trace is validated end to
// end, not just fault-free.
func wireWorkload(key, name string, sources []confllvm.Source, wire [][]byte, expect []int64) Workload {
	return Workload{
		Key:  key,
		Name: name,
		Prog: func(confllvm.Variant) confllvm.Program {
			return confllvm.Program{Sources: sources}
		},
		World: func() *confllvm.World {
			w := confllvm.NewWorld()
			w.Params = []int64{int64(len(wire))}
			w.NetIn = wire
			return w
		},
		Check: func(res *confllvm.Result) error {
			if len(res.Outputs) != len(expect) {
				return fmt.Errorf("%s: got %d outputs %v, want %d %v",
					name, len(res.Outputs), res.Outputs, len(expect), expect)
			}
			for i := range expect {
				if res.Outputs[i] != expect[i] {
					return fmt.Errorf("%s: output[%d] = %d, predicted %d (%v vs %v)",
						name, i, res.Outputs[i], expect[i], res.Outputs, expect)
				}
			}
			return nil
		},
	}
}

// scenarioWorkload generates one spec's traffic and serves it with
// wireWorkload. Our grids never fail generation (it validates the spec's
// family), hence the panic.
func scenarioWorkload(key string, sources []confllvm.Source, spec scenario.Spec) Workload {
	wire, expect, err := scenario.Traffic(spec)
	if err != nil {
		panic(err)
	}
	return wireWorkload(key, spec.Name, sources, wire, expect)
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
