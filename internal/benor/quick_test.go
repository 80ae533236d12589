package benor

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/netsim"
)

// TestCollectorDedupProperty: for any sequence of (sender, round, value)
// triples, the collector counts at most one report per sender per round,
// and never counts messages from pruned rounds.
func TestCollectorDedupProperty(t *testing.T) {
	f := func(raw []uint8, floorRaw uint8) bool {
		nw := netsim.New(1)
		c := newCollector[int](nw.Node(0))
		floor := int(floorRaw) % 4
		c.advance(floor)

		type key struct{ round, sender int }
		want := map[key]bool{}
		for i := 0; i+2 < len(raw); i += 3 {
			sender := int(raw[i]) % 5
			round := int(raw[i+1]) % 6
			value := int(raw[i+2]) % 2
			if err := c.absorb(msgnet.Message{From: sender, Payload: Report[int]{Round: round, Value: value}}); err != nil {
				return false
			}
			if round >= floor {
				want[key{round, sender}] = true
			}
		}
		got := 0
		for round, bucket := range c.reports {
			if round < floor {
				return false // pruned round resurfaced
			}
			got += len(bucket)
		}
		return got == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorRejectsForeignPayloads: any non-protocol payload is an
// error, never a silent misclassification.
func TestCollectorRejectsForeignPayloads(t *testing.T) {
	nw := netsim.New(1)
	c := newCollector[int](nw.Node(0))
	if err := c.absorb(msgnet.Message{From: 0, Payload: "not-a-benor-message"}); err == nil {
		t.Fatal("foreign payload absorbed")
	}
	if err := c.absorb(msgnet.Message{From: 0, Payload: 42}); err == nil {
		t.Fatal("foreign payload absorbed")
	}
}

// TestVACRoundOutcomeProperty: across random small configurations with
// no crashes, one VAC round never violates the paper's guarantees. This
// is the quick-check analogue of TestVACSingleRoundProperties.
func TestVACRoundOutcomeProperty(t *testing.T) {
	f := func(seed uint64, inputBits uint8) bool {
		n := 3 + int(seed%3) // 3..5
		tFaults := (n - 1) / 2
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(inputBits>>i) & 1
		}
		outs := make([]struct {
			conf int
			val  int
		}, n)
		nw := netsim.New(n, netsim.WithSeed(seed))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		errs := make(chan error, n)
		done := make(chan int, n)
		for id := 0; id < n; id++ {
			go func(id int) {
				vac, err := NewVAC(nw.Node(id), tFaults)
				if err != nil {
					errs <- err
					return
				}
				conf, v, err := vac.Propose(ctx, inputs[id], 1)
				if err != nil {
					errs <- err
					return
				}
				outs[id].conf, outs[id].val = int(conf), v
				done <- id
			}(id)
		}
		for i := 0; i < n; i++ {
			select {
			case <-done:
			case err := <-errs:
				t.Logf("round error: %v", err)
				return false
			}
		}
		// Coherence over adopt & commit on values.
		committed := -1
		for _, o := range outs {
			if o.conf == 3 { // core.Commit
				committed = o.val
			}
		}
		if committed >= 0 {
			for _, o := range outs {
				if o.val != committed || o.conf == 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
