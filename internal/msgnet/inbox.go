package msgnet

import (
	"sync"

	"ooc/internal/sim"
)

// Inbox is an endpoint's receive side. The goroutine that delivers a
// message pushes it here, and the push routes it: with a Mux attached, a
// Tagged payload goes to its channel's lane (or to the backlog while the
// channel does not exist yet) and wakes only that lane's consumer;
// everything else goes to the endpoint's own lane, its Ready and
// TryRecv. Lanes keep the Tagged wrapper, so the take hook sees a
// message as it crossed the network. No goroutine sits in between.
type Inbox struct {
	rng  *sim.RNG // root of the channel lanes' streams; never drawn from
	took func(Message)

	mu      sync.Mutex
	own     lane
	err     error                   // terminal: fails every lane
	mux     *Mux                    // nil: nothing is routed by tag
	muxErr  error                   // the mux's context ended: fails its lanes
	subs    map[string]*subEndpoint // the mux's channels
	backlog map[string][]Message    // tagged traffic for channels not created yet
}

// lane is one consumer's queue and the 1-buffered channel that wakes it.
type lane struct {
	q      Queue[Message]
	notify chan struct{}
	rng    *sim.RNG // pop order; nil is FIFO
}

func (l *lane) wake() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// NewInbox returns an empty inbox. rng, if set, picks which pending
// message the own lane hands out next (netsim's seeded adversary), and
// each channel lane gets a stream split off it when the inbox is made,
// so a lane's order depends only on the seed and its arrivals; without
// it every lane is FIFO. took, if set, sees each message a consumer
// takes, Tagged wrapper included, after the take and off the lock.
func NewInbox(rng *sim.RNG, took func(Message)) *Inbox {
	in := &Inbox{took: took, own: lane{notify: make(chan struct{}, 1), rng: rng}}
	if rng != nil {
		in.rng = rng.Split("lanes", 0)
	}
	return in
}

// Push delivers m to the lane it routes to and wakes that lane's
// consumer. It reports false when m was dropped instead: the inbox is
// dead, or m is for a channel not created yet whose backlog is full.
func (in *Inbox) Push(m Message) bool {
	in.mu.Lock()
	if in.err != nil {
		in.mu.Unlock()
		return false
	}
	l := &in.own
	if t, ok := m.Payload.(Tagged); ok && in.mux != nil {
		s := in.subs[t.Channel]
		if s == nil {
			kept := len(in.backlog[t.Channel]) < DefaultBacklogLimit
			if kept {
				in.backlog[t.Channel] = append(in.backlog[t.Channel], m)
			}
			mux := in.mux
			in.mu.Unlock()
			if !kept {
				// Over the cap: drop the newest. The protocols above the
				// mux already tolerate message loss (Raft retransmits, the
				// OOC protocols re-broadcast per round), so dropping beats
				// letting a dead channel's queue grow without bound.
				mux.dropped.Inc(mux.parent.ID())
				if mux.onDrop != nil {
					mux.onDrop(t.Channel, m.From)
				}
			}
			return kept
		}
		l = &s.lane
	}
	l.q.Push(m)
	in.mu.Unlock()
	l.wake()
	return true
}

// Ready is the own lane's wake-up channel (Endpoint.Ready).
func (in *Inbox) Ready() <-chan struct{} { return in.own.notify }

// TryRecv takes from the own lane (Endpoint.TryRecv).
func (in *Inbox) TryRecv() (Message, bool, error) { return in.take(&in.own) }

// Len reports how many messages wait in the own lane.
func (in *Inbox) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.own.q.Len()
}

// take removes l's next message. A dead inbox, or for a mux lane a mux
// whose context has ended, returns its error instead, whatever is queued.
func (in *Inbox) take(l *lane) (m Message, ok bool, err error) {
	in.mu.Lock()
	if err = in.err; err == nil && l != &in.own {
		err = in.muxErr
	}
	if err == nil {
		if n := l.q.Len(); n > 1 && l.rng != nil {
			// Swap the pick to the head: the adversary keeps no order.
			q, i := &l.q, l.q.head+l.rng.Intn(n)
			q.items[q.head], q.items[i] = q.items[i], q.items[q.head]
		}
		m, ok = l.q.Pop()
	}
	in.mu.Unlock()
	if ok && in.took != nil {
		in.took(m)
	}
	return m, ok, err
}

// Fail makes err terminal and wakes every consumer: each lane's take
// returns it from now on. The first error sticks.
func (in *Inbox) Fail(err error) {
	in.mu.Lock()
	if in.err == nil {
		in.err = err
	}
	in.wakeLocked()
	in.mu.Unlock()
}

// Reset empties every lane and the backlog and clears the terminal
// error: netsim's Restart, where in-flight traffic is lost.
func (in *Inbox) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.err = nil
	in.own.q = Queue[Message]{}
	for _, s := range in.subs {
		s.q = Queue[Message]{}
	}
	clear(in.backlog)
}

func (in *Inbox) wakeLocked() {
	in.own.wake()
	for _, s := range in.subs {
		s.wake()
	}
}

// attach makes m the inbox's mux (one for the endpoint's lifetime).
// Tagged traffic that arrived before it moves to the backlog, as if
// routed on arrival.
func (in *Inbox) attach(m *Mux) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.mux, in.subs, in.backlog = m, make(map[string]*subEndpoint), make(map[string][]Message)
	var own Queue[Message]
	for msg, ok := in.own.q.Pop(); ok; msg, ok = in.own.q.Pop() {
		if t, tagged := msg.Payload.(Tagged); tagged {
			in.backlog[t.Channel] = append(in.backlog[t.Channel], msg)
		} else {
			own.Push(msg)
		}
	}
	in.own.q = own
}

// channel returns the mux's sub-endpoint for name, creating its lane on
// first use with whatever the backlog holds for it.
func (in *Inbox) channel(name string) *subEndpoint {
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.subs[name]; ok {
		return s
	}
	s := &subEndpoint{mux: in.mux, channel: name, lane: lane{notify: make(chan struct{}, 1)}}
	if in.rng != nil {
		s.rng = in.rng.Split(name, 0)
	}
	for _, msg := range in.backlog[name] {
		s.q.Push(msg)
	}
	delete(in.backlog, name)
	in.subs[name] = s
	return s
}

// detach fails the mux's lanes with err, its context's, and wakes them;
// the own lane lives on.
func (in *Inbox) detach(err error) {
	in.mu.Lock()
	in.muxErr = err
	in.wakeLocked()
	in.mu.Unlock()
}
