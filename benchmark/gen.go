package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kv is all the generator knows of the program under test.
type kv interface {
	Put(ctx context.Context, key, value string) error
	Get(ctx context.Context, key string) (value string, found bool, err error)
}

const (
	keysPerClient = 128
	valueLen      = 64
	opDeadline    = time.Second
	// traceEvery: while the probe is on, every 64th write of a client
	// carries a request id in its value so the wrappers can attach their
	// spans to it.
	traceEvery = 64
	zipfS      = 0.99
)

// Value layout (valueLen bytes): one tag byte ('T' carries a request id,
// 'v' does not), 8 hex digits of request id, 4 of client id, 12 of
// version, then filler drawn from the seed. The version is what the
// linearizability and WAL checks read back; client+version identifies a
// write uniquely because each client numbers its own writes.
const (
	tagTraced = 'T'
	tagPlain  = 'v'
	offReq    = 1
	offClient = 9
	offVer    = 13
	offFill   = 25
)

const hexDigits = "0123456789abcdef"

func putHex(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

func parseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// valueIdentity recovers which client wrote a value and as which version.
func valueIdentity(v string) (client int, version uint64, ok bool) {
	if len(v) != valueLen || (v[0] != tagTraced && v[0] != tagPlain) {
		return 0, 0, false
	}
	c, ok1 := parseHex(v[offClient:offVer])
	ver, ok2 := parseHex(v[offVer:offFill])
	return int(c), ver, ok1 && ok2
}

// valueRequest returns the request id a sampled write's value carries.
func valueRequest(v string) (uint32, bool) {
	if len(v) != valueLen || v[0] != tagTraced {
		return 0, false
	}
	id, ok := parseHex(v[offReq:offClient])
	return uint32(id), ok
}

// draw is one generated operation before it is bound to a client's keys.
type draw struct {
	key  int // index into the issuing client's keys
	read bool
	fill byte
}

// drawer turns one RNG stream into the op sequence. Everything the seed
// decides goes through here, so two drawers with the same seed and mix
// produce the same sequence.
type drawer struct {
	rng      *RNG
	readFrac float64
	cdf      []float64 // zipfian CDF over key ranks; nil = uniform
}

func newDrawer(rng *RNG, readFrac float64, zipf bool) *drawer {
	d := &drawer{rng: rng, readFrac: readFrac}
	if zipf {
		d.cdf = make([]float64, keysPerClient)
		var sum float64
		for i := range d.cdf {
			sum += 1 / math.Pow(float64(i+1), zipfS)
			d.cdf[i] = sum
		}
		for i := range d.cdf {
			d.cdf[i] /= sum
		}
	}
	return d
}

func (d *drawer) next() draw {
	var out draw
	out.read = d.readFrac > 0 && d.rng.Float64() < d.readFrac
	if d.cdf == nil {
		out.key = d.rng.Intn(keysPerClient)
	} else {
		out.key = sort.SearchFloat64s(d.cdf, d.rng.Float64())
		if out.key >= keysPerClient {
			out.key = keysPerClient - 1
		}
	}
	out.fill = 'a' + byte(d.rng.Intn(26))
	return out
}

// opRec is one issued operation, in ns since the generator's epoch. On a
// closed loop due is the invocation time; on an open loop it is when the
// schedule said the op should start, and issued is when a worker got to
// it — latency is counted from due either way.
type opRec struct {
	due, issued, ret int64
	version          uint64 // written (writes) or observed (reads; 0 = absent)
	key              uint8
	read, failed     bool
}

// client owns keysPerClient keys and issues one op at a time, which is
// what keeps writes to a key from overlapping (the checker's
// single-writer discipline).
type client struct {
	id      int
	keys    []string
	version uint64 // of this client's latest write; writes are numbered from 1
	buf     [valueLen]byte
	recs    []opRec
}

func newClient(id int) *client {
	c := &client{id: id, keys: make([]string, keysPerClient)}
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf("c%d/k%d", id, i)
	}
	return c
}

// generator drives a kv with one workload's load shape and keeps every
// op it issued.
type generator struct {
	target  kv
	epoch   time.Time
	load    workload // clients, readFrac, zipf, rate
	seed    uint64
	stream  uint64
	clients []*client
	probe   *probe // nil when untraced

	stop        atomic.Bool
	completed   atomic.Int64
	inflight    atomic.Int64
	maxInflight int64 // open loop; written by the dispatcher only
	backlogEnd  int64 // open loop: due but unfinished when dispatch stopped
	wg          sync.WaitGroup
}

// newGenerator builds w's load for one segment of a run. epoch is the
// run's time origin, shared with the probe so client and wrapper spans
// line up; stream picks the segment's own draws out of the seed.
func newGenerator(target kv, epoch time.Time, w workload, seed, stream uint64, p *probe) *generator {
	g := &generator{target: target, epoch: epoch, load: w, seed: seed, stream: stream, probe: p}
	for i := 0; i < w.clients; i++ {
		g.clients = append(g.clients, newClient(i))
	}
	return g
}

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

// start launches the load: closed-loop clients each drawing from their
// own stream, or the open-loop dispatcher and its worker pool.
func (g *generator) start() {
	root := newRNG(g.seed).Stream('s', g.stream)
	if g.load.rate > 0 {
		g.startOpen(root)
		return
	}
	for _, c := range g.clients {
		c := c
		dr := newDrawer(root.Stream('c', uint64(c.id)), g.load.readFrac, g.load.zipf)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for !g.stop.Load() {
				t := g.now()
				g.do(c, dr.next(), t, t)
			}
		}()
	}
}

// job is one scheduled open-loop op waiting for a worker.
type job struct {
	d   draw
	due int64
}

// openQueueCap holds the schedule's backlog when the program falls
// behind: 16 s of ops at the fixed rate, so the dispatcher never blocks
// on it within a run and a stall shows as latency, not as ops unsent.
const openQueueCap = 1 << 16

func (g *generator) startOpen(root *RNG) {
	work := make(chan job, openQueueCap)
	for _, c := range g.clients {
		c := c
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for j := range work {
				g.do(c, j.d, j.due, g.now())
				g.inflight.Add(-1)
			}
		}()
	}
	dr := newDrawer(root.Stream('o', 0), g.load.readFrac, g.load.zipf)
	interval := float64(time.Second) / g.load.rate
	base := g.now()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer close(work)
		for i := 0; ; i++ {
			due := base + int64(float64(i)*interval)
			if wait := due - g.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			if g.stop.Load() {
				g.backlogEnd = g.inflight.Load()
				return
			}
			if n := g.inflight.Add(1); n > g.maxInflight {
				g.maxInflight = n
			}
			work <- job{d: dr.next(), due: due}
		}
	}()
}

// halt stops issuing and waits until every op in flight has returned.
func (g *generator) halt() {
	g.stop.Store(true)
	g.wg.Wait()
}

// do runs one op on c and records it.
func (g *generator) do(c *client, d draw, due, issued int64) {
	rec := opRec{due: due, issued: issued, key: uint8(d.key), read: d.read}
	key := c.keys[d.key]
	var req uint32
	sampled := false
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	if d.read {
		v, found, err := g.target.Get(ctx, key)
		switch {
		case err != nil:
			rec.failed = true
		case found:
			_, ver, ok := valueIdentity(v)
			rec.version, rec.failed = ver, !ok
		}
	} else {
		c.version++
		rec.version = c.version
		if g.probe != nil && g.probe.on() && c.version%traceEvery == 0 {
			// segment (4 bits) | client (7) | sample number (21): unique
			// within a run's span file.
			req, sampled = uint32(g.stream)<<28|uint32(c.id)<<21|uint32(c.version/traceEvery)&0x1fffff, true
		}
		rec.failed = g.target.Put(ctx, key, c.value(d.fill, req, sampled)) != nil
	}
	cancel()
	rec.ret = g.now()
	if sampled {
		g.probe.record(span{req: req, kind: spanClient, node: -1, shard: -1, start: due, end: rec.ret})
	}
	c.recs = append(c.recs, rec)
	g.completed.Add(1)
}

func (c *client) value(fill byte, req uint32, sampled bool) string {
	b := c.buf[:]
	b[0] = tagPlain
	if sampled {
		b[0] = tagTraced
	}
	putHex(b[offReq:offClient], uint64(req))
	putHex(b[offClient:offVer], uint64(c.id))
	putHex(b[offVer:offFill], c.version)
	for i := offFill; i < valueLen; i++ {
		b[i] = fill
	}
	return string(b)
}
