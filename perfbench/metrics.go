package main

import (
	"fmt"

	"confllvm"
	"confllvm/internal/machine"
)

func (r *runner) put(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// endToEndMetrics fills the untraced run's metrics. The host-timed ones
// (compile_ms_*, spec_mips, serve_ns_per_req) are scaled to the reference
// host speed (see probeRefNS); the detail line keeps them as measured.
func (r *runner) endToEndMetrics(setupS []float64) error {
	scale := probeRefNS / r.probeNS
	raw := map[string]float64{}
	hostTimed := func(name string, value float64, unit string, rate bool) {
		raw[name] = value
		if rate { // work per host time: a slow host reads low
			value /= scale
		} else {
			value *= scale
		}
		r.put(name, value, unit)
	}
	var all, perJob []float64
	for i, ms := range r.compileMS {
		if len(ms) == 0 {
			return fmt.Errorf("%s [%v]: no successful measured compile", r.jobs[i].name, r.jobs[i].v)
		}
		all = append(all, ms...)
		perJob = append(perJob, median(ms))
	}
	r.put("setup_s", median(setupS), "s")
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.put("peak_rss_mb", rss, "MB")

	// The p50 is the median over the (program, variant) pairs of each
	// pair's median: with equally many samples per pair, the median of the
	// raw samples falls on the boundary between two pairs and swings with
	// single samples. The tail is taken over the raw samples and goes to
	// the detail line only: its run-to-run spread on a shared host (up to
	// 0.37 of its median even after scaling) exceeds any allowed bound.
	hostTimed("compile_ms_p50", median(perJob), "ms", false)
	tail := tailPercentile(len(all))
	raw["compile_ms_tail"] = percentile(all, tail)
	r.detail["compile_ms_tail"] = map[string]any{"value": raw["compile_ms_tail"] * scale, "unit": "ms",
		"percentile": tail, "samples": len(all)}
	r.put("code_bytes", float64(r.codeBytes), "bytes")

	var mips []float64
	cycles := map[confllvm.Variant][]float64{}
	for _, c := range r.cells {
		if len(c.mips) == 0 {
			return fmt.Errorf("%s [%v]: no successful measured run", c.kernel.Name, c.v)
		}
		mips = append(mips, median(c.mips))
		cycles[c.v] = append(cycles[c.v], float64(c.refWall))
	}
	hostTimed("spec_mips", geomean(mips), "instr/us", true)
	r.put("spec_cycles_base", geomean(cycles[confllvm.VariantBase]), "cycles")
	r.put("spec_cycles_mpx", geomean(cycles[confllvm.VariantMPX]), "cycles")
	r.put("spec_cycles_seg", geomean(cycles[confllvm.VariantSeg]), "cycles")
	r.detail["spec_runs_per_cell"] = len(r.cells[0].mips)

	if len(r.kvNSReq) == 0 {
		return fmt.Errorf("no successful measured kv replay")
	}
	sim, err := r.kv.simulate(r.cfg.seed)
	if err != nil {
		return err
	}
	hostTimed("serve_ns_per_req", median(r.kvNSReq), "ns", false)
	r.put("sim_cycles_per_req", sim.cyclesPerReq, "cycles")
	r.put("sim_p99_cycles_light", float64(sim.p99Light), "cycles")
	r.put("sim_p99_cycles_heavy", float64(sim.p99Heavy), "cycles")
	r.put("sim_max_rps_at_slo", sim.maxRPS, "req/s")
	r.detail["kv_requests_per_replay"] = len(r.kv.wire)
	r.detail["kv_replays"] = len(r.kvNSReq)
	r.detail["sim_max_rps_gap_cycles"] = sim.maxRPSGap
	r.detail["host_scale"] = scale
	r.detail["as_measured"] = raw
	return nil
}

// kvHandlers are the trusted calls the KV server makes per request; each
// gets its own trt metrics.
var kvHandlers = []string{"recv", "send", "ssl_send", "decrypt", "malloc", "malloc_priv", "free", "free_priv"}

// layerMetrics fills the traced run's per-layer metrics: per-operation
// medians, run totals over the traced units, and ratios of totals.
func (r *runner) layerMetrics() error {
	if len(r.counts) == 0 || len(r.specInstrs) == 0 || r.kvOps == 0 {
		return fmt.Errorf("a phase has no successful traced unit")
	}
	tr := r.tr
	// timed reports a layer's self time (and, with allocs, its heap
	// allocations) per operation and in total; it returns the total ns.
	timed := func(prefix, span string, allocs bool) float64 {
		ns, al := tr.layerSums(named(span))
		r.put(prefix+".ns", median(ns), "ns")
		r.put(prefix+".ns.total", sum(ns), "ns")
		if allocs {
			r.put(prefix+".allocs", median(al), "count")
			r.put(prefix+".allocs.total", sum(al), "count")
		}
		return sum(ns)
	}
	counted := func(name string, vals []float64) {
		r.put(name, median(vals), "count")
		r.put(name+".total", sum(vals), "count")
	}
	// pick collects a count from every traced compile operation whose
	// variant keep accepts.
	pick := func(keep func(confllvm.Variant) bool, f func(stageCounts) int) []float64 {
		var out []float64
		for _, c := range r.counts {
			if keep(c.v) {
				out = append(out, float64(f(c)))
			}
		}
		return out
	}
	all := func(confllvm.Variant) bool { return true }
	nonBase := func(v confllvm.Variant) bool { return v != confllvm.VariantBase }
	mpx := func(v confllvm.Variant) bool { return v == confllvm.VariantMPX }
	checked := confllvm.Variant.Checked

	// Compile layers.
	minicNS := timed("minic", "minic", true)
	src := pick(all, func(c stageCounts) int { return c.srcBytes })
	r.put("minic.src_bytes_per_s", ratio(sum(src), minicNS/1e9), "bytes/s")
	timed("irgen", "irgen", true)
	irIn := pick(all, func(c stageCounts) int { return c.irInsts })
	counted("irgen.ir_insts", irIn)
	timed("opt", "opt", false)
	irOut := pick(all, func(c stageCounts) int { return c.irInstsOut })
	counted("opt.ir_insts_out", irOut)
	r.put("opt.kept_ratio", ratio(sum(irOut), sum(irIn)), "ratio")
	timed("taint", "taint", false)
	counted("taint.qual_vars", pick(nonBase, func(c stageCounts) int { return c.qualVars }))
	timed("codegen", "codegen", true)
	counted("codegen.insts", pick(all, func(c stageCounts) int { return c.insts }))
	counted("codegen.static_bnd_checks", pick(mpx, func(c stageCounts) int { return c.bndChecks }))
	timed("link", "link", false)
	code := pick(all, func(c stageCounts) int { return c.codeBytes })
	r.put("link.code_bytes", median(code), "bytes")
	r.put("link.code_bytes.total", sum(code), "bytes")
	verifyNS := timed("verify", "verify", false)
	verifyInsts := pick(checked, func(c stageCounts) int { return c.verifyInsts })
	r.put("verify.insts_per_s", ratio(sum(verifyInsts), verifyNS/1e9), "1/s")
	counted("verify.funcs", pick(checked, func(c stageCounts) int { return c.verifyFuncs }))
	if err := r.codegenShares(); err != nil {
		return err
	}

	// Loader and machine, separately for the kernels and the KV server.
	for _, kind := range []string{"spec", "kv"} {
		timed("loader."+kind, kind+"/loader", false)
		stats, instrs := r.specStats, r.specInstrs
		if kind == "kv" {
			stats, instrs = r.kvStats, []float64{float64(r.kv.ref.Instrs)} // every replay repeats the reference
		}
		r.machineMetrics("machine."+kind, kind+"/machine", stats, instrs)
	}

	// Trusted runtime, per KV request.
	reqs := float64(r.kvOps * len(r.kv.wire))
	var calls, cycles float64
	for _, c := range r.kvSim {
		calls += float64(c.calls)
		cycles += float64(c.cycles)
	}
	ns, _ := tr.layerSums(prefixed("kv/trt/"))
	trtNS := sum(ns)
	r.put("trt.self_ns", median(ns), "ns")
	r.put("trt.self_ns.total", trtNS, "ns")
	r.put("trt.calls_per_req", calls/reqs, "count")
	r.put("trt.ns_per_call", ratio(trtNS, calls), "ns")
	r.put("trt.sim_cycles_per_req", cycles/reqs, "cycles")
	for _, h := range kvHandlers {
		c := r.kvSim[h]
		if c == nil {
			c = &simCount{}
		}
		hns, _ := tr.layerSums(named("kv/trt/" + h))
		p := "trt." + h
		r.put(p+".calls_per_req", float64(c.calls)/reqs, "count")
		r.put(p+".self_ns.total", sum(hns), "ns")
		r.put(p+".ns_per_call", ratio(sum(hns), float64(c.calls)), "ns")
		r.put(p+".sim_cycles_per_req", float64(c.cycles)/reqs, "cycles")
	}

	// Traffic generation (set-up) and the benchmark's own cost.
	scen, _ := tr.layerSums(named("scenario"))
	r.put("scenario.ns", median(scen), "ns")
	r.put("scenario.wire_bytes", float64(r.kv.wireBytes), "bytes")
	var over []float64
	for i := range r.tracedUnitNS {
		over = append(over, median(r.tracedUnitNS[i])/median(r.plainUnitNS[i]))
	}
	r.put("bench.trace_overhead_pct", (geomean(over)-1)*100, "%")
	rootNS, _ := tr.layerSums(func(s string) bool { return s == "compile" || s == "spec" || s == "kv" })
	r.put("bench.host_probe_ns", r.probeNS, "ns")
	r.put("bench.untraced_ns", median(rootNS), "ns")
	r.put("bench.untraced_ns.total", sum(rootNS), "ns")
	return nil
}

// machineMetrics reports one kind of machine operation: host self time
// (Finish minus trusted handlers) and the simulated work behind it.
func (r *runner) machineMetrics(prefix, span string, s machine.Stats, instrs []float64) {
	ns, al := r.tr.layerSums(named(span))
	r.put(prefix+".self_ns", median(ns), "ns")
	r.put(prefix+".self_ns.total", sum(ns), "ns")
	r.put(prefix+".allocs", median(al), "count")
	r.put(prefix+".allocs.total", sum(al), "count")
	r.put(prefix+".instrs", median(instrs), "count")
	r.put(prefix+".instrs.total", float64(s.Instrs), "count")
	in := float64(s.Instrs)
	r.put(prefix+".mips", ratio(in, sum(ns)/1e3), "instr/us")
	mem := float64(s.Loads + s.Stores)
	r.put(prefix+".mem_ops_per_instr", ratio(mem, in), "ratio")
	r.put(prefix+".l1_miss_ratio", ratio(float64(s.CacheMisses), mem), "ratio")
	r.put(prefix+".bnd_checks_per_instr", ratio(float64(s.BndChecks), in), "ratio")
	r.put(prefix+".fused_per_instr", ratio(float64(s.FusedSlots), in), "ratio")
	r.put(prefix+".defuse_ratio", ratio(float64(s.Defuses), float64(s.FusedSlots)), "ratio")
}

// codegenShares splits the kernels' simulated cycles by instrumentation:
// each share is a variant's extra cycles over the next-weaker variant, as
// a percentage of Base, summed over the kernels (so sep+cfi+mpx is OurMPX's
// whole overhead). OurBare and OurCFI are compiled and run once here.
func (r *runner) codegenShares() error {
	want, err := expectedChecksums()
	if err != nil {
		return err
	}
	extra, err := specCells([]confllvm.Variant{confllvm.VariantBare, confllvm.VariantCFI}, r.linkSeed, r.parallel, want)
	if err != nil {
		return err
	}
	total := map[confllvm.Variant]float64{}
	for _, c := range append(extra, r.cells...) {
		if c.ref == nil {
			r.attempted++
			if _, err := c.run(nil); err != nil {
				r.fail(1, err)
				continue
			}
		}
		total[c.v] += float64(c.refWall)
	}
	base := total[confllvm.VariantBase]
	pct := func(hi, lo confllvm.Variant) float64 { return (total[hi] - total[lo]) / base * 100 }
	r.put("codegen.sep_pct", pct(confllvm.VariantBare, confllvm.VariantBase), "%")
	r.put("codegen.cfi_pct", pct(confllvm.VariantCFI, confllvm.VariantBare), "%")
	r.put("codegen.mpx_pct", pct(confllvm.VariantMPX, confllvm.VariantCFI), "%")
	r.put("codegen.seg_pct", pct(confllvm.VariantSeg, confllvm.VariantCFI), "%")
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
