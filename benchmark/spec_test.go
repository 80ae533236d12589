package main

import (
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is written by hand to a fixed schema; this keeps it in
// step with the tables the binary reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.reportOnly {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary that are not report-only", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the binary", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the binary", len(got), kind, len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, {%s %s %s} in the binary", kind, i, m, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %q (unit %q) breaks the naming rules", kind, m.Name, m.Unit)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if info, err := os.Stat("../BENCHMARK.json"); err != nil || info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json must exist and stay under 64 KiB: %v", err)
	}
}
