package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
)

// scenarioCells builds the smoke-sized scenario sweep the PR CI runs
// under -race: the short grid across the unchecked baseline and one
// checked variant.
func scenarioCells() []Cell {
	mc := machine.DefaultConfig()
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX}
	return ScenarioCells("scenarios", scenario.FigureGrid(true, scenario.DefaultSeed), cols, &mc)
}

// scenarioTable renders matrix results the way confbench's scenarios
// figure does: requests/sec per cell.
func scenarioTable(t *testing.T, results []CellResult) *Table {
	t.Helper()
	tbl := NewTable("scenarios", []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX}, "req/s")
	tbl.HigherIsBetter = true
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s [%v]: %v", r.Cell.Row, r.Cell.Variant, r.Err)
		}
		tbl.Set(r.Cell.Row, r.Cell.Variant, ReqsPerSec(r.Cell.Scale, r.M.Wall))
	}
	return tbl
}

// TestScenarioMatrixDeterminism is the engine-to-figure determinism
// guarantee: the same seed must yield identical simulated measurements
// and byte-identical figure rows whether the matrix runs serially or on
// an 8-worker pool. Run under -race in PR CI, this doubles as the
// scenario smoke test.
func TestScenarioMatrixDeterminism(t *testing.T) {
	cells := scenarioCells()
	serial := RunMatrix(cells, 1)
	parallel := RunMatrix(cells, 8)

	for i := range cells {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s [%v]: serial err=%v parallel err=%v",
				cells[i].Row, cells[i].Variant, s.Err, p.Err)
		}
		if s.M.Wall != p.M.Wall || s.M.Stats != p.M.Stats {
			t.Errorf("%s [%v]: serial and parallel runs disagree (wall %d vs %d)",
				cells[i].Row, cells[i].Variant, s.M.Wall, p.M.Wall)
		}
		for j := range s.M.Outputs {
			if s.M.Outputs[j] != p.M.Outputs[j] {
				t.Errorf("%s [%v]: output[%d] %d vs %d",
					cells[i].Row, cells[i].Variant, j, s.M.Outputs[j], p.M.Outputs[j])
			}
		}
	}

	st, pt := scenarioTable(t, serial), scenarioTable(t, parallel)
	if st.String() != pt.String() {
		t.Errorf("rendered figure rows differ between serial and parallel matrix runs:\n%s\nvs\n%s", st, pt)
	}
}

// TestScenarioSeedChangesFigureRows: the sweep must actually depend on
// the engine seed — distinct seeds yield distinct traffic and therefore
// distinct simulated cycle counts somewhere in the grid.
func TestScenarioSeedChangesFigureRows(t *testing.T) {
	mc := machine.DefaultConfig()
	cols := []confllvm.Variant{confllvm.VariantMPX}
	a := RunMatrix(ScenarioCells("s", scenario.FigureGrid(true, 1), cols, &mc), 4)
	b := RunMatrix(ScenarioCells("s", scenario.FigureGrid(true, 2), cols, &mc), 4)
	same := true
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("cell %d: %v / %v", i, a[i].Err, b[i].Err)
		}
		if a[i].M.Wall != b[i].M.Wall {
			same = false
		}
	}
	if same {
		t.Fatal("every cell's wall cycles identical across distinct seeds — the sweep ignores its seed")
	}
}

// TestWorkloadsIncludeScenarioFamilies guards the zero-extra-wiring
// registration: the differential and fuzz harnesses iterate Workloads,
// so the KV and TLS-ish families must appear there.
func TestWorkloadsIncludeScenarioFamilies(t *testing.T) {
	for _, short := range []bool{true, false} {
		keys := map[string]bool{}
		for _, wl := range Workloads(short) {
			keys[wl.Key] = true
		}
		for _, want := range []string{"kv", "tlsh"} {
			if !keys[want] {
				t.Errorf("Workloads(short=%v) lacks the %q family", short, want)
			}
		}
	}
}

// TestTableGeoMeanSkipsZeroCells pins the zero-cycle guard on the
// geomean paths: an untimed/zero cell must be skipped — exactly like the
// interp sweep skips untimed MIPS cells — never folded in as +Inf/NaN.
func TestTableGeoMeanSkipsZeroCells(t *testing.T) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX}
	for _, higher := range []bool{false, true} {
		tbl := NewTable("t", cols, "req/s")
		tbl.HigherIsBetter = higher
		// A healthy row: MPX at 80% of Base.
		tbl.Set("ok", confllvm.VariantBase, 1000)
		tbl.Set("ok", confllvm.VariantMPX, 800)
		// A zero-cycle row (ReqsPerSec of an untimed cell) and a zero base.
		tbl.Set("zerocell", confllvm.VariantBase, 1000)
		tbl.Set("zerocell", confllvm.VariantMPX, 0)
		tbl.Set("zerobase", confllvm.VariantBase, 0)
		tbl.Set("zerobase", confllvm.VariantMPX, 900)

		g := tbl.GeoMeanOverhead(confllvm.VariantMPX)
		if math.IsInf(g, 0) || math.IsNaN(g) {
			t.Fatalf("HigherIsBetter=%v: geomean poisoned by zero cells: %v", higher, g)
		}
		want := 25.0 // only the healthy row: 1000/800
		if !higher {
			want = -20.0 // 800/1000
		}
		if math.Abs(g-want) > 1e-9 {
			t.Errorf("HigherIsBetter=%v: geomean %.4f, want %.4f (zero rows skipped)", higher, g, want)
		}
		if o := tbl.Overhead("zerocell", confllvm.VariantMPX); math.IsInf(o, 0) || math.IsNaN(o) {
			t.Errorf("Overhead on a zero cell: %v", o)
		}
		if s := tbl.String(); strings.Contains(s, "Inf") || strings.Contains(s, "NaN") {
			t.Errorf("rendered table contains Inf/NaN:\n%s", s)
		}
	}
}

// TestScenarioCellsShareArtifacts: the whole KV grid must map to one
// artifact-cache key per variant (the sweep's cost is simulated requests,
// not recompilation).
func TestScenarioCellsShareArtifacts(t *testing.T) {
	cells := scenarioCells()
	keys := map[string]bool{}
	for _, c := range cells {
		keys[c.Workload.Key] = true
	}
	if len(keys) != 2 {
		t.Fatalf("scenario grid uses %d artifact keys %v, want exactly {kv, tlsh}", len(keys), keys)
	}
}

// TestWireTraceReusable pins what scenarioWorkload relies on: every
// World of one Workload shares the same generated packets, and serving
// them never mutates them, so two runs produce the same outputs and
// leave the trace byte-identical.
func TestWireTraceReusable(t *testing.T) {
	wl := KVWorkload(scenario.DefaultKV(true))
	if a, b := wl.World().NetIn, wl.World().NetIn; &a[0][0] != &b[0][0] {
		t.Fatal("two Worlds of one Workload got separately generated traces")
	}
	digest := func() [sha256.Size]byte {
		h := sha256.New()
		for _, pkt := range wl.World().NetIn {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(pkt))))
			h.Write(pkt)
		}
		var sum [sha256.Size]byte
		copy(sum[:], h.Sum(nil))
		return sum
	}
	before := digest()
	var outs [2][]int64
	for i := range outs {
		m, err := wl.Run(confllvm.VariantMPX, nil)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = m.Outputs
		if digest() != before {
			t.Fatalf("run %d mutated the wire trace's packets", i+1)
		}
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Errorf("outputs differ across runs: %v vs %v", outs[0], outs[1])
	}
}
