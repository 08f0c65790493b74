package main

import (
	"math"
	"strings"
	"testing"
)

// TestFigureRegistryComplete pins the registry as the single source of
// truth: every registered figure resolves through figuresFor and appears
// in the derived usage enumeration (which is also what -list prints), so
// a figure cannot be runnable-but-unlisted or listed-but-unknown. It also
// pins that the figures this repo's CI drives by name actually exist.
func TestFigureRegistryComplete(t *testing.T) {
	names := figureNames()
	seen := map[string]bool{}
	for _, f := range figureRegistry {
		if f.name == "" || f.build == nil {
			t.Fatalf("registry entry %+v is incomplete", f.name)
		}
		if seen[f.name] {
			t.Fatalf("figure %q registered twice", f.name)
		}
		seen[f.name] = true
		sel, err := figuresFor(f.name)
		if err != nil {
			t.Fatalf("registered figure %q does not resolve: %v", f.name, err)
		}
		if len(sel) != 1 || sel[0].name != f.name {
			t.Fatalf("figuresFor(%q) selected %d figures", f.name, len(sel))
		}
		if !strings.Contains(names, f.name) {
			t.Fatalf("figure %q missing from the derived usage string %q", f.name, names)
		}
	}
	for _, required := range []string{"ablation", "scenarios", "faults", "verify", "latency", "interp"} {
		if !seen[required] {
			t.Fatalf("figure %q (driven by CI) is not registered", required)
		}
	}
	all, err := figuresFor("all")
	if err != nil || len(all) != len(figureRegistry) {
		t.Fatalf("figuresFor(all) = %d figures, err %v; want the whole registry (%d)",
			len(all), err, len(figureRegistry))
	}
}

// TestFiguresForUnknown: an unknown figure must error with a pointer to
// -list, so the CLI's failure mode teaches the valid set.
func TestFiguresForUnknown(t *testing.T) {
	_, err := figuresFor("fig99")
	if err == nil {
		t.Fatal("unknown figure must error")
	}
	if !strings.Contains(err.Error(), "-list") {
		t.Fatalf("error %q does not point at -list", err)
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("error %q does not name the bad figure", err)
	}
}

// TestGeomean pins the one aggregate behind every history column and the
// interp table's geomean line: values <= 0 are skipped, and no positive
// value means no aggregate rather than a zero, -Inf or NaN.
func TestGeomean(t *testing.T) {
	if g, ok := geomean([]float64{2, 0, 8, -1}); !ok || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2, 0, 8, -1) = %v, %v; want 4, true", g, ok)
	}
	for _, vals := range [][]float64{nil, {0, -3}} {
		if g, ok := geomean(vals); ok {
			t.Fatalf("geomean(%v) = %v, true; want no aggregate", vals, g)
		}
	}
}
