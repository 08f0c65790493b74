package bench

import (
	"fmt"
	"time"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
)

// FaultCells expands a fault sweep into matrix cells: one supervised
// serving run per (scenario spec, fault rate in per-mille). Each cell
// derives an independent injector seed from the base seed and its grid
// coordinates, so cells never share a fault schedule yet the whole sweep
// is a pure function of the base seed. Like every matrix cell, the
// resulting ServeReports are simulated quantities — byte-identical across
// schedulings, dispatch modes, and -parallel settings; only HostNS is
// host-sensitive.
func FaultCells(figure string, specs []scenario.Spec, rates []uint64,
	v confllvm.Variant, conf *machine.Config, seed uint64) []Cell {
	var cells []Cell
	for si, spec := range specs {
		wl := ScenarioWorkload(spec)
		wire := wl.World().NetIn
		for _, rate := range rates {
			pol := DefaultFaultPolicy(scenario.MixSeed(seed, uint64(si), rate), rate)
			cells = append(cells, Cell{
				Figure: figure,
				Row:    fmt.Sprintf("%s/r%03d", spec.Name, rate),
				// Workload is kept for scheduling metadata (key, name);
				// execution goes through Custom below — the generator's
				// output predictions do not hold once packets are
				// corrupted and requests shed.
				Workload: wl,
				Variant:  v,
				Conf:     conf,
				Scale:    uint64(spec.TotalRequests()),
				Custom: func(c *Cell) (*Measurement, error) {
					start := time.Now()
					rep, err := Supervise(wl.Key, wl.Prog(c.Variant), c.Variant, wire, c.Conf, pol)
					if err != nil {
						return nil, err
					}
					return &Measurement{
						Variant: c.Variant,
						Wall:    rep.RunCycles + rep.BackoffCycles,
						Stats:   machine.Stats{Instrs: rep.Instrs, Cycles: rep.RunCycles},
						HostNS:  time.Since(start).Nanoseconds(),
						Serve:   rep,
					}, nil
				},
			})
		}
	}
	return cells
}
