package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -diff needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runDiff prints, per workload and end-to-end metric, old, new, their
// ratio (new/old, the base being old), the bound BENCHMARK.json allows
// and a verdict; per-layer metrics follow without one. A workload either
// side marks invalid is reported as such and compared no further. The
// error it returns is non-nil when any verdict is worse or invalid.
func runDiff(w io.Writer, specPath, oldPath, newPath string) error {
	var spec benchSpec
	var old, cur ledgerFile
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {oldPath, &old}, {newPath, &cur}} {
		if err := readJSON(f.path, f.into); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "old: %s  git %s, seed %d, window %d s\n", oldPath, old.Env.GitRevision, old.Env.Seed, old.Env.WindowS)
	fmt.Fprintf(w, "new: %s  git %s, seed %d, window %d s\n", newPath, cur.Env.GitRevision, cur.Env.Seed, cur.Env.WindowS)
	bad := 0
	for _, wl := range spec.Workloads {
		o, n := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		if o == nil || n == nil || !o.Valid || !n.Valid {
			fmt.Fprintf(w, "  invalid: missing or marked invalid in one of the files\n")
			bad++
			continue
		}
		fmt.Fprintf(w, "  %-32s %14s %14s %18s %7s  %s\n", "end to end", "old", "new", "new/old", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			ov, nv := o.EndToEnd[m.Name].Value, n.EndToEnd[m.Name].Value
			verdict := "ok"
			switch {
			case ov <= 0 || nv <= 0:
				verdict = "invalid"
			case m.Better == "higher" && nv < ov*(1-m.Bound), m.Better == "lower" && nv > ov*(1+m.Bound):
				verdict = "worse"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "  %-32s %14.4f %14.4f %9.3f of %-6.4g %6.0f%%  %s (%s is better, %s)\n",
				m.Name, ov, nv, ratio(nv, ov), ov, m.Bound*100, verdict, m.Better, m.Unit)
		}
		if n.Failed > o.Failed {
			fmt.Fprintf(w, "  %-32s %14d %14d %37s\n", "failed ops", o.Failed, n.Failed, "worse (any increase)")
			bad++
		}
		fmt.Fprintf(w, "  %-32s %14s %14s %18s\n", "per layer (no verdict)", "old", "new", "new/old")
		for _, m := range spec.PerLayer {
			ov, nv := o.PerLayer[m.Name].Value, n.PerLayer[m.Name].Value
			fmt.Fprintf(w, "  %-32s %14.4f %14.4f %9.3f of %-6.4g %s\n", m.Name, ov, nv, ratio(nv, ov), ov, m.Unit)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end comparisons are worse or invalid", bad)
	}
	return nil
}
