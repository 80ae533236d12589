// Command ooctrace inspects a recorded trace file (written by
// oocsim -trace-out, or any trace.WriteJSON caller): it prints the run's
// shape — per-round and per-node timelines, round-latency percentiles,
// and a breakdown of what the agreement detectors returned each round.
//
// Usage:
//
//	ooctrace run.trace.json              # all sections
//	ooctrace -rounds=false run.trace.json
//	ooctrace -node 2 run.trace.json      # one processor's event timeline
//	ooctrace -round 3 run.trace.json     # one round's events, all nodes
//
// Traces recorded with a timed recorder (oocsim -trace-out does this)
// carry per-event wall-clock offsets and yield real latencies; untimed
// traces fall back to sequence-number spans, which still order rounds
// but measure "events elapsed" rather than time.
//
// It also reads the per-request span dumps raftkv -trace-out writes
// (rtrace format, DESIGN §3.6.2) and renders where each sampled
// request's latency went — leader queue, fsync, replication, apply:
//
//	ooctrace -spans spans.json                   # one line per request
//	ooctrace -spans spans.json -request <id>     # one request's timeline
//	ooctrace -spans spans.json -request <id> -json  # same view, diffable
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/trace"
)

func main() {
	var (
		rounds   = flag.Bool("rounds", true, "print the per-round table and latency percentiles")
		nodes    = flag.Bool("nodes", true, "print the per-node summary table")
		outcomes = flag.Bool("outcomes", true, "print the detector-outcome breakdown")
		shards   = flag.Bool("shards", true, "print the per-mux-channel traffic table (multi-shard traces)")
		node     = flag.Int("node", -1, "print one processor's full event timeline")
		round    = flag.Int("round", -1, "print one round's events across all processors")
		channel  = flag.String("channel", "", "print one mux channel's event timeline (e.g. shard/2)")
		spans    = flag.String("spans", "", "read a per-request span dump (raftkv -trace-out) instead of a trace file")
		request  = flag.String("request", "", "with -spans: print one request's phase timeline (hex or decimal span ID)")
		jsonOut  = flag.Bool("json", false, "with -spans: emit the view as JSON for diffing")
	)
	flag.Parse()
	if *spans != "" {
		if err := runSpans(*spans, *request, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "ooctrace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ooctrace [flags] trace.json  |  ooctrace -spans spans.json [-request id] [-json]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ooctrace: %v\n", err)
		os.Exit(1)
	}
	tr, err := trace.ReadJSON(f)
	_ = f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ooctrace: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	printHeader(w, tr)
	if *outcomes {
		printOutcomes(w, tr)
	}
	if *rounds {
		printRounds(w, tr)
	}
	if *nodes {
		printNodes(w, tr)
	}
	if *shards {
		printChannels(w, tr)
	}
	if *node >= 0 {
		printTimeline(w, tr, func(ev trace.Event) bool { return ev.Node == *node },
			fmt.Sprintf("timeline of node %d", *node))
	}
	if *round >= 0 {
		printTimeline(w, tr, func(ev trace.Event) bool { return ev.Round == *round },
			fmt.Sprintf("events of round %d", *round))
	}
	if *channel != "" {
		printTimeline(w, tr, func(ev trace.Event) bool {
			ch, ok := channelOf(ev.Value)
			return ok && ch == *channel
		}, fmt.Sprintf("timeline of channel %s", *channel))
	}
}

// channelOf reports the mux channel an event's payload traveled on, if
// any. A live payload is still the mux wire wrapper, which ChannelOf
// unwraps; a JSON-decoded trace carries its fmt.Sprint form,
// "{<channel> <inner>}", so the first token is the channel name — taken
// only when it contains a "/" (the channel-naming idiom, e.g. shard/3),
// which no struct-field rendering starts with.
func channelOf(v any) (string, bool) {
	if ch, ok := msgnet.ChannelOf(v); ok {
		return ch, true
	}
	s, ok := v.(string)
	if !ok || !strings.HasPrefix(s, "{") {
		return "", false
	}
	tok, _, found := strings.Cut(strings.TrimPrefix(s, "{"), " ")
	if !found || !strings.Contains(tok, "/") {
		return "", false
	}
	return tok, true
}

// printChannels renders the per-mux-channel traffic table — for a
// multi-shard trace, one row per consensus group. Traces with no
// channel-tagged traffic (single-group runs) print nothing.
func printChannels(w io.Writer, tr trace.Trace) {
	type tally struct {
		sends, delivers, drops int
		bytes                  int
		nodes                  map[int]bool
	}
	byChannel := map[string]*tally{}
	for _, ev := range tr.Events {
		ch, ok := channelOf(ev.Value)
		if !ok {
			continue
		}
		t := byChannel[ch]
		if t == nil {
			t = &tally{nodes: map[int]bool{}}
			byChannel[ch] = t
		}
		t.nodes[ev.Node] = true
		switch ev.Kind {
		case trace.KindSend:
			t.sends++
			t.bytes += ev.Bytes
		case trace.KindDeliver:
			t.delivers++
		case trace.KindDrop:
			t.drops++
		}
	}
	if len(byChannel) == 0 {
		return
	}
	names := make([]string, 0, len(byChannel))
	for ch := range byChannel {
		names = append(names, ch)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "mux channels (one consensus group per channel in a multi-shard trace)")
	fmt.Fprintf(w, "  %-12s  %-6s  %-8s  %-6s  %-10s  %s\n", "channel", "sends", "delivers", "drops", "bytes", "nodes")
	for _, ch := range names {
		t := byChannel[ch]
		fmt.Fprintf(w, "  %-12s  %-6d  %-8d  %-6d  %-10d  %d\n", ch, t.sends, t.delivers, t.drops, t.bytes, len(t.nodes))
	}
	fmt.Fprintln(w)
}

// timed reports whether the trace carries wall-clock offsets (a plain
// recorder leaves every Time zero).
func timed(tr trace.Trace) bool {
	for _, ev := range tr.Events {
		if ev.Time != 0 {
			return true
		}
	}
	return false
}

func printHeader(w io.Writer, tr trace.Trace) {
	s := trace.Summarize(tr)
	span := "untimed (sequence order only)"
	if timed(tr) {
		var max time.Duration
		for _, ev := range tr.Events {
			if ev.Time > max {
				max = ev.Time
			}
		}
		span = max.Round(time.Microsecond).String()
	}
	nodes := map[int]bool{}
	for _, ev := range tr.Events {
		nodes[ev.Node] = true
	}
	fmt.Fprintf(w, "trace: %d events, %d nodes, %d rounds, span %s\n",
		len(tr.Events), len(nodes), s.MaxRound, span)
	fmt.Fprintf(w, "stats: %v\n\n", s)
}

// parseOutcome extracts the confidence from a detector return payload.
// Decoded traces carry stringified values: a template detector return is
// "[<confidence> <value>]" (the fmt.Sprint of [2]any{Confidence, v}).
func parseOutcome(v any) (string, bool) {
	s, ok := v.(string)
	if !ok || !strings.HasPrefix(s, "[") {
		return "", false
	}
	conf, _, _ := strings.Cut(strings.TrimPrefix(s, "["), " ")
	switch conf {
	case "vacillate", "adopt", "commit":
		return conf, true
	}
	return "", false
}

// printOutcomes renders, per detector object and round, how many
// processors returned each confidence level — the run's convergence
// story at a glance.
func printOutcomes(w io.Writer, tr trace.Trace) {
	type key struct {
		object string
		round  int
	}
	counts := map[key]map[string]int{}
	objects := map[string]bool{}
	for _, ev := range tr.Events {
		if ev.Kind != trace.KindReturn {
			continue
		}
		conf, ok := parseOutcome(ev.Value)
		if !ok {
			continue
		}
		k := key{ev.Object, ev.Round}
		if counts[k] == nil {
			counts[k] = map[string]int{}
		}
		counts[k][conf]++
		objects[ev.Object] = true
	}
	if len(counts) == 0 {
		fmt.Fprintf(w, "detector outcomes: none recorded (no detector returns in trace)\n\n")
		return
	}
	names := make([]string, 0, len(objects))
	for o := range objects {
		names = append(names, o)
	}
	sort.Strings(names)
	for _, object := range names {
		fmt.Fprintf(w, "detector outcomes: %s\n", object)
		fmt.Fprintf(w, "  %-6s  %-9s  %-6s  %-6s\n", "round", "vacillate", "adopt", "commit")
		var rounds []int
		for k := range counts {
			if k.object == object {
				rounds = append(rounds, k.round)
			}
		}
		sort.Ints(rounds)
		for _, r := range rounds {
			c := counts[key{object, r}]
			fmt.Fprintf(w, "  %-6d  %-9d  %-6d  %-6d\n", r, c["vacillate"], c["adopt"], c["commit"])
		}
		fmt.Fprintln(w)
	}
}

// roundSpan is one round's extent, in wall-clock offsets when the trace
// is timed and in sequence numbers otherwise.
type roundSpan struct {
	round      int
	events     int
	start, end int64
}

func (rs roundSpan) width() int64 { return rs.end - rs.start }

// printRounds renders per-round event counts and spans, then the
// round-latency percentiles.
func printRounds(w io.Writer, tr trace.Trace) {
	hasTime := timed(tr)
	spans := map[int]*roundSpan{}
	for _, ev := range tr.Events {
		if ev.Round == 0 {
			continue // unattributed events (network noise, crashes)
		}
		v := int64(ev.Seq)
		if hasTime {
			v = int64(ev.Time)
		}
		rs, ok := spans[ev.Round]
		if !ok {
			spans[ev.Round] = &roundSpan{round: ev.Round, events: 1, start: v, end: v}
			continue
		}
		rs.events++
		if v < rs.start {
			rs.start = v
		}
		if v > rs.end {
			rs.end = v
		}
	}
	if len(spans) == 0 {
		fmt.Fprintf(w, "rounds: no round-attributed events\n\n")
		return
	}
	unit := "seq-span"
	if hasTime {
		unit = "latency"
	}
	rounds := make([]int, 0, len(spans))
	for r := range spans {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	fmt.Fprintf(w, "rounds (%s per round)\n", unit)
	fmt.Fprintf(w, "  %-6s  %-7s  %s\n", "round", "events", unit)
	widths := make([]int64, 0, len(rounds))
	for _, r := range rounds {
		rs := spans[r]
		widths = append(widths, rs.width())
		fmt.Fprintf(w, "  %-6d  %-7d  %s\n", r, rs.events, formatSpan(rs.width(), hasTime))
	}
	sort.Slice(widths, func(i, j int) bool { return widths[i] < widths[j] })
	pct := func(p float64) int64 {
		idx := int(p * float64(len(widths)-1))
		return widths[idx]
	}
	fmt.Fprintf(w, "  %s percentiles: p50=%s p90=%s p99=%s max=%s\n\n", unit,
		formatSpan(pct(0.50), hasTime), formatSpan(pct(0.90), hasTime),
		formatSpan(pct(0.99), hasTime), formatSpan(widths[len(widths)-1], hasTime))
}

func formatSpan(v int64, hasTime bool) string {
	if hasTime {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprint(v)
}

// printNodes renders one line per processor: what it did and where it
// ended up.
func printNodes(w io.Writer, tr trace.Trace) {
	byNode := trace.ByNode(tr)
	ids := make([]int, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintln(w, "nodes")
	fmt.Fprintf(w, "  %-5s  %-7s  %-6s  %-6s  %-8s  %-8s  %s\n",
		"node", "events", "sends", "recvs", "invokes", "crashed", "decided")
	for _, id := range ids {
		evs := byNode[id]
		var sends, recvs, invokes int
		crashed := false
		decided := "-"
		for _, ev := range evs {
			switch ev.Kind {
			case trace.KindSend:
				sends++
			case trace.KindDeliver:
				recvs++
			case trace.KindInvoke:
				invokes++
			case trace.KindCrash:
				crashed = true
			case trace.KindDecide:
				decided = fmt.Sprintf("round %d (%v)", ev.Round, ev.Value)
			}
		}
		fmt.Fprintf(w, "  %-5d  %-7d  %-6d  %-6d  %-8d  %-8v  %s\n",
			id, len(evs), sends, recvs, invokes, crashed, decided)
	}
	fmt.Fprintln(w)
}

// printTimeline dumps the matching events in sequence order.
func printTimeline(w io.Writer, tr trace.Trace, match func(trace.Event) bool, title string) {
	fmt.Fprintln(w, title)
	hasTime := timed(tr)
	for _, ev := range tr.Events {
		if !match(ev) {
			continue
		}
		if hasTime {
			fmt.Fprintf(w, "  %12s  %s\n", ev.Time.Round(time.Microsecond), trace.FormatEvent(ev))
		} else {
			fmt.Fprintf(w, "  %s\n", trace.FormatEvent(ev))
		}
	}
	fmt.Fprintln(w)
}
