// Package bench is the experiment harness: it runs the reproduction's
// experiment matrix (DESIGN.md §5) and renders the tables EXPERIMENTS.md
// records. Every experiment funnels its runs through internal/checker, so
// a safety violation in any configuration fails the experiment rather
// than silently skewing a number.
//
// The paper is a brief announcement with no evaluation tables of its own;
// its two figures (Raft message formats and state variables) are
// reproduced as code and exercised by F1/F2; experiments E1–E10 and EA
// validate every claim the paper makes; and E11–E13 measure the
// repository's extensions (multivalued consensus, the shared-memory
// baseline framework, and the Raft PreVote ablation). See EXPERIMENTS.md
// for the recorded outputs.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"ooc/internal/metrics"
)

// Table is one experiment's output.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// Metrics maps a cell key (the experiment's parameter tuple rendered
	// as "k=v" pairs) to that cell's telemetry snapshot. Populated only
	// when Suite.CollectMetrics is set: each cell then runs its trials
	// against a private registry, so the numbers attribute cleanly.
	Metrics map[string]metrics.Snapshot `json:"metrics,omitempty"`
}

// AddRow appends a row, stringifying each cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderJSON writes the table as one indented JSON document, including
// any per-cell metrics snapshots.
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// attachMetrics records a cell's telemetry snapshot under key.
func (t *Table) attachMetrics(key string, snap metrics.Snapshot) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]metrics.Snapshot)
	}
	t.Metrics[key] = snap
}

// Suite configures how heavy the experiment matrix runs.
type Suite struct {
	// Trials is the number of seeded repetitions per configuration.
	Trials int
	// Quick trims the parameter sweep for fast CI runs.
	Quick bool
	// BaseSeed offsets all seeds so independent invocations can sample
	// fresh randomness while staying reproducible.
	BaseSeed uint64
	// CollectMetrics attaches a private metrics registry to each
	// instrumented cell and records its snapshot in Table.Metrics. Off by
	// default: the registry itself is cheap, but cells that don't need
	// telemetry shouldn't pay even the pointer chases.
	CollectMetrics bool
}

// cellRegistry returns a fresh registry when the suite collects metrics,
// nil otherwise (nil registries hand out nil, no-op instruments).
func (s Suite) cellRegistry() *metrics.Registry {
	if !s.CollectMetrics {
		return nil
	}
	return metrics.NewRegistry()
}

// DefaultSuite is the configuration cmd/oocbench uses.
func DefaultSuite() Suite { return Suite{Trials: 20} }

// QuickSuite is a trimmed configuration for tests.
func QuickSuite() Suite { return Suite{Trials: 4, Quick: true} }

// Experiment is one runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(Suite) (Table, error)
	// WallClock marks experiments whose trials run real timers (the Raft
	// matrix). Their measurements distort when other experiments compete
	// for CPU, so harnesses must not run them concurrently with anything.
	WallClock bool
}

// Experiments lists the full matrix in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "F1", Name: "Raft message formats (paper Figure 1): codec round-trip and sizes", Run: RunF1},
		{ID: "F2", Name: "Raft state variables (paper Figure 2): transitions through an election", Run: RunF2},
		{ID: "E1", Name: "Ben-Or decomposed under Algorithm 1: safety and rounds", Run: RunE1},
		{ID: "E2", Name: "Ben-Or decomposed vs monolithic baseline", Run: RunE2},
		{ID: "E3", Name: "Phase-King decomposed under Algorithm 2 vs Byzantine adversaries", Run: RunE3},
		{ID: "E4", Name: "Phase-King decomposed vs monolithic baseline", Run: RunE4},
		{ID: "EA", Name: "King-diversion adversary: paper's first-commit rule vs classical rule", Run: RunEA},
		{ID: "E5", Name: "Raft single-decree consensus (Algorithm 7)", Run: RunE5, WallClock: true},
		{ID: "E6", Name: "Raft VAC decomposition (Algorithms 10-11)", Run: RunE6, WallClock: true},
		{ID: "E7", Name: "VAC from two adopt-commits (Section 5 construction)", Run: RunE7},
		{ID: "E8", Name: "Ben-Or's three outcome classes (Section 5 separation evidence)", Run: RunE8},
		{ID: "E9", Name: "Rounds-to-consensus distribution vs n (reconciliator termination)", Run: RunE9},
		{ID: "E10", Name: "Message complexity per round, all three protocols", Run: RunE10, WallClock: true},
		{ID: "E11", Name: "Multivalued consensus extension (Ben-Or VAC, round-report reconciliator)", Run: RunE11},
		{ID: "E12", Name: "Shared-memory consensus (Aspnes framework, Algorithm 2)", Run: RunE12},
		{ID: "E13", Name: "PreVote ablation: term inflation and post-heal disruption", Run: RunE13, WallClock: true},
		{ID: "E14", Name: "Raft closed-loop throughput: coalescing, group commit, pipelining", Run: RunE14, WallClock: true},
		{ID: "E15", Name: "Raft linearizable reads: ReadIndex, leases, and batching", Run: RunE15, WallClock: true},
		{ID: "E16", Name: "Multi-Raft scaling: sharded keyspace over independent consensus groups", Run: RunE16, WallClock: true},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// runCells executes fn for every cell index [0, cells) on a bounded
// worker pool, explore.Sweep-style, and returns the per-cell results in
// index order so tables render identically to a sequential run. Each cell
// is an independent slice of an experiment's parameter grid (its trials
// build their own networks and recorders), so cells parallelize freely;
// the pool is bounded by GOMAXPROCS because cells are CPU-bound. The
// first cell error aborts the experiment, as in the sequential code.
//
// Experiments whose trials run real wall-clock timers (the Raft matrix:
// E5, E6, E13, and E10's Raft rows) deliberately do NOT go through this
// pool: overlapping timer-driven trials distort their time-to-decision
// measurements and can starve heartbeats on small machines.
func runCells[T any](cells int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, cells)
	errs := make([]error, cells)
	parallelism := runtime.GOMAXPROCS(0)
	if parallelism > cells {
		parallelism = cells
	}
	if parallelism < 1 {
		parallelism = 1
	}
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// row is one rendered table row produced by a parallel cell.
type row []any

// meteredRow couples a table row with the cell's telemetry snapshot (and
// the key it files under). Cells that don't collect metrics carry an
// empty snapshot.
type meteredRow struct {
	r   row
	key string
	met metrics.Snapshot
}

// addMeteredRows appends the rows to the table, attaching each cell's
// snapshot when the suite collects metrics.
func addMeteredRows(tbl *Table, s Suite, rows []meteredRow) {
	for _, mr := range rows {
		tbl.AddRow(mr.r...)
		if s.CollectMetrics {
			tbl.attachMetrics(mr.key, mr.met)
		}
	}
}

// stats is a tiny aggregation helper.
type stats struct {
	vals []float64
}

func (s *stats) add(v float64) { s.vals = append(s.vals, v) }

func (s *stats) mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

func (s *stats) max() float64 {
	out := 0.0
	for _, v := range s.vals {
		if v > out {
			out = v
		}
	}
	return out
}

func (s *stats) percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
