package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID:      "X1",
		Title:   "demo",
		Columns: []string{"a", "long_column"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("wide-cell-value", "x")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"X1 — demo", "long_column", "2.50", "wide-cell-value", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	var s stats
	if s.mean() != 0 || s.max() != 0 || s.percentile(0.5) != 0 {
		t.Fatal("empty stats not zero")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.add(v)
	}
	if s.mean() != 3 {
		t.Fatalf("mean = %v", s.mean())
	}
	if s.max() != 5 {
		t.Fatalf("max = %v", s.max())
	}
	if s.percentile(0) != 1 || s.percentile(1) != 5 || s.percentile(0.5) != 3 {
		t.Fatalf("percentiles = %v %v %v", s.percentile(0), s.percentile(0.5), s.percentile(1))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e1"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Name == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// TestAllExperimentsQuick runs the entire matrix in quick mode: every
// experiment must complete and report zero violations (EA deliberately
// reports the broken row inside its table, not as an error).
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix skipped in -short")
	}
	s := QuickSuite()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			var buf bytes.Buffer
			tbl.Render(&buf)
			if buf.Len() == 0 {
				t.Fatalf("%s rendered nothing", e.ID)
			}
		})
	}
}

// TestE15RowsServedByTheirOwnPath checks that E15's read mode and lease
// reach cluster.Get: each row's reads are attributed (raft.ReadStats) to
// the path the row names.
func TestE15RowsServedByTheirOwnPath(t *testing.T) {
	if testing.Short() {
		t.Skip("spins fsync-bound clusters")
	}
	tbl, err := RunE15(QuickSuite())
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, c := range tbl.Columns {
		col[c] = i
	}
	want := map[string]string{"linearizable": "index_reads", "lease": "lease_reads", "stale": "stale_reads"}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("E15 has %d rows, want %d", len(tbl.Rows), len(want))
	}
	for _, row := range tbl.Rows {
		counter, ok := want[row[col["mode"]]]
		if !ok {
			t.Fatalf("unexpected E15 row %v", row)
		}
		if n := row[col[counter]]; n == "0" {
			t.Fatalf("%s row: %s = 0 (row %v)", row[col["mode"]], counter, row)
		}
	}
}

func TestEAOutcomeShape(t *testing.T) {
	tbl, err := RunEA(QuickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("EA has %d rows", len(tbl.Rows))
	}
	// Row 0: decomposed + first-commit must be BROKEN (the finding);
	// rows 1-2 must HOLD.
	if tbl.Rows[0][3] != "BROKEN" {
		t.Fatalf("first-commit row = %v, attack did not reproduce", tbl.Rows[0])
	}
	if tbl.Rows[1][3] != "HOLDS" || tbl.Rows[2][3] != "HOLDS" {
		t.Fatalf("safe rules broken: %v / %v", tbl.Rows[1], tbl.Rows[2])
	}
}

// TestCollectMetricsAttachesSnapshots runs E2 with metrics collection on
// and checks that every cell carries a non-trivial telemetry snapshot
// whose network counters agree with the laws of the simulator
// (delivered + dropped <= sent), and that the table renders as JSON.
func TestCollectMetricsAttachesSnapshots(t *testing.T) {
	s := QuickSuite()
	s.CollectMetrics = true
	tbl, err := RunE2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Metrics) != len(tbl.Rows) {
		t.Fatalf("metrics for %d cells, want %d", len(tbl.Metrics), len(tbl.Rows))
	}
	for key, snap := range tbl.Metrics {
		sent := snap.Counters["netsim_sends_total"]
		delivered := snap.Counters["netsim_delivers_total"]
		dropped := snap.Counters["netsim_drops_total"]
		if sent == 0 {
			t.Fatalf("cell %s: no sends recorded", key)
		}
		if delivered+dropped > sent {
			t.Fatalf("cell %s: delivered %d + dropped %d > sent %d", key, delivered, dropped, sent)
		}
	}
	var buf bytes.Buffer
	if err := tbl.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.ID != "E2" || len(back.Metrics) != len(tbl.Metrics) {
		t.Fatalf("round-tripped table lost data: %+v", back.ID)
	}

	// With collection off the table must stay metric-free.
	plain, err := RunE2(QuickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != nil {
		t.Fatalf("metrics attached without CollectMetrics: %v", plain.Metrics)
	}
}
