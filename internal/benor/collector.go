package benor

import (
	"context"
	"fmt"
	"maps"

	"ooc/internal/msgnet"
)

// collector demultiplexes the endpoint's inbound stream into per-round,
// per-phase buckets. Asynchrony means a processor may receive messages
// for rounds it has not reached yet (buffered) or has already left
// (discarded), and crash-tolerant counting must be per-sender so network
// duplication cannot inflate thresholds.
type collector[V comparable] struct {
	node     msgnet.Endpoint
	reports  map[int]map[int]Report[V] // round -> sender -> message
	ratifies map[int]map[int]Ratify[V]
	floor    int // rounds below this are dead and pruned
}

func newCollector[V comparable](node msgnet.Endpoint) *collector[V] {
	return &collector[V]{
		node:     node,
		reports:  make(map[int]map[int]Report[V]),
		ratifies: make(map[int]map[int]Ratify[V]),
	}
}

// advance discards all state for rounds below round.
func (c *collector[V]) advance(round int) {
	if round <= c.floor {
		return
	}
	c.floor = round
	maps.DeleteFunc(c.reports, func(r int, _ map[int]Report[V]) bool { return r < round })
	maps.DeleteFunc(c.ratifies, func(r int, _ map[int]Ratify[V]) bool { return r < round })
}

// absorb files one inbound message into its bucket.
func (c *collector[V]) absorb(m msgnet.Message) error {
	switch p := m.Payload.(type) {
	case Report[V]:
		if p.Round >= c.floor {
			file(c.reports, p.Round, m.From, p)
		}
	case Ratify[V]:
		if p.Round >= c.floor {
			file(c.ratifies, p.Round, m.From, p)
		}
	default:
		return fmt.Errorf("benor: unexpected message type %T from %d", m.Payload, m.From)
	}
	return nil
}

// file keeps the first message from each sender in round's bucket.
func file[M any](buckets map[int]map[int]M, round, from int, m M) {
	bucket, ok := buckets[round]
	if !ok {
		bucket = make(map[int]M)
		buckets[round] = bucket
	}
	if _, dup := bucket[from]; !dup {
		bucket[from] = m
	}
}

// waitReports blocks until at least k distinct senders' phase-1 messages
// for round are buffered, then returns them.
func (c *collector[V]) waitReports(ctx context.Context, round, k int) (map[int]Report[V], error) {
	return wait(ctx, c, c.reports, round, k, "reports")
}

// waitRatifies blocks until at least k distinct senders' phase-2 messages
// for round are buffered, then returns them.
func (c *collector[V]) waitRatifies(ctx context.Context, round, k int) (map[int]Ratify[V], error) {
	return wait(ctx, c, c.ratifies, round, k, "ratifies")
}

func wait[V comparable, M any](ctx context.Context, c *collector[V], buckets map[int]map[int]M, round, k int, kind string) (map[int]M, error) {
	for len(buckets[round]) < k {
		m, err := c.node.Recv(ctx)
		if err != nil {
			return nil, fmt.Errorf("benor: waiting for %d %s in round %d: %w", k, kind, round, err)
		}
		if err := c.absorb(m); err != nil {
			return nil, err
		}
	}
	return buckets[round], nil
}
