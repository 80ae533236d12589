// Package transport is a real TCP implementation of msgnet.Endpoint:
// length-delimited binary-codec streams (internal/codec) over persistent
// connections, one process per protocol node. It lets every protocol in
// this repository — Ben-Or, Raft, the VAC compositions — run across
// actual sockets rather than the in-memory simulator, with identical
// protocol code.
//
// Delivery semantics match the asynchronous model the protocols assume:
// Send is best-effort (a broken connection drops the message and triggers
// reconnection on the next send), ordering across messages is not
// guaranteed, and duplication does not occur. Raft's retries and Ben-Or's
// quorum waits tolerate exactly this.
//
// There is one wire encoding, the hand-rolled binary codec, which encodes
// its closed message set with zero steady-state allocations; Send refuses
// a payload outside that set with an error naming its type, and keeps the
// connection. A dialer opens each connection with the one-byte 'B'
// preamble and its node id; a connection that opens with anything else is
// dropped. Frames are V1, or V2 when they carry a trace ID, and the
// decoder takes both.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ooc/internal/codec"
	"ooc/internal/codec/bin"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
)

// preambleBinary opens every connection: the dialer sends it so the
// receiver knows the stream is the binary codec's.
const preambleBinary = 'B'

// maxFrame caps an inbound binary frame. Snapshot transfers dominate
// frame size; anything beyond this is a corrupt length prefix, not a
// message, and the connection is dropped rather than the allocation
// attempted.
const maxFrame = 1 << 28

// Option configures a Transport.
type Option func(*Transport)

// WithMetrics counts encoded and decoded wire bytes in reg as
// codec_encode_bytes_total / codec_decode_bytes_total, attributed to
// this transport's node id. All remote traffic is counted; a self-send
// never reaches the wire.
func WithMetrics(reg *metrics.Registry) Option {
	return func(tr *Transport) {
		if reg != nil {
			tr.encBytes = reg.Counter("codec_encode_bytes_total")
			tr.decBytes = reg.Counter("codec_decode_bytes_total")
		}
	}
}

// Transport is one node's TCP endpoint.
type Transport struct {
	id    int
	addrs []string
	ln    net.Listener

	encBytes *metrics.Counter
	decBytes *metrics.Counter

	in *msgnet.Inbox // its own lock: delivery never waits on the conn table

	mu      sync.Mutex
	conns   map[int]*outConn
	inbound map[net.Conn]struct{}
	closed  bool

	wg sync.WaitGroup
}

// outConn is one buffered outbound stream. Frames are encoded
// length-prefixed into buf, which grows from empty to what a write
// carries; each Send writes it after encoding — so a message leaves in
// one syscall — and Broadcast batches its per-peer copies into a single
// write each.
type outConn struct {
	conn net.Conn
	buf  []byte // preamble (first write only), then frames not yet written
}

// outBufSize is the most write-buffer capacity a peer keeps between
// writes: a typical AppendEntries batch fits, and a larger frame leaves in
// one write and then its memory goes.
const outBufSize = 64 << 10

var _ msgnet.Endpoint = (*Transport)(nil)

// Listen binds addrs[id] and starts accepting peer connections. addrs is
// the full cluster membership, indexed by node id.
func Listen(id int, addrs []string, opts ...Option) (*Transport, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("transport: id %d out of range for %d addresses", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	return listenOn(id, addrs, ln, opts...), nil
}

func listenOn(id int, addrs []string, ln net.Listener, opts ...Option) *Transport {
	tr := &Transport{
		id:      id,
		addrs:   append([]string(nil), addrs...),
		ln:      ln,
		in:      msgnet.NewInbox(nil, nil),
		conns:   make(map[int]*outConn),
		inbound: make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(tr)
	}
	tr.wg.Add(1)
	go tr.acceptLoop()
	return tr
}

// NewLocalCluster builds n connected transports on loopback ephemeral
// ports — the quickest way to run a protocol over real sockets in tests
// and examples. Close every returned transport when done.
func NewLocalCluster(n int, opts ...Option) ([]*Transport, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				_ = listeners[j].Close()
			}
			return nil, fmt.Errorf("transport: local cluster: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	out := make([]*Transport, n)
	for i := 0; i < n; i++ {
		out[i] = listenOn(i, addrs, listeners[i], opts...)
	}
	return out, nil
}

// ID implements msgnet.Endpoint.
func (tr *Transport) ID() int { return tr.id }

// N implements msgnet.Endpoint.
func (tr *Transport) N() int { return len(tr.addrs) }

// Addr reports the listener's actual address (useful with ":0").
func (tr *Transport) Addr() string { return tr.ln.Addr().String() }

// Send implements msgnet.Endpoint. Local sends short-circuit the network.
func (tr *Transport) Send(to int, payload any) error {
	return tr.send(to, payload, true)
}

// send encodes payload to peer to; when flush is set the write buffer is
// drained before returning (the single-Send path). Broadcast passes
// flush=false and drains every dirty peer once at the end instead.
func (tr *Transport) send(to int, payload any, flush bool) error {
	if to < 0 || to >= len(tr.addrs) {
		return fmt.Errorf("transport: send to invalid node %d", to)
	}
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return msgnet.ErrClosed
	}
	if to == tr.id {
		tr.mu.Unlock()
		tr.in.Push(msgnet.Message{From: tr.id, To: to, Payload: payload})
		return nil
	}
	var wire int
	oc, err := tr.connLocked(to)
	if err == nil {
		if wire, err = tr.encodeLocked(oc, payload); err != nil {
			// The caller's bug, not the link's: keep the intact stream.
			tr.mu.Unlock()
			return fmt.Errorf("transport: send to node %d: %w", to, err)
		}
		if flush {
			err = oc.write()
		}
		if err != nil {
			// Broken pipe: drop the connection; the next send redials
			// with a fresh stream.
			_ = oc.conn.Close()
			delete(tr.conns, to)
		}
	}
	tr.mu.Unlock()
	if err != nil {
		// Best-effort semantics: remote loss is silent, like the
		// simulator's drops. The caller cannot act on it anyway.
		return nil //nolint:nilerr // deliberate: async send never fails on remote errors
	}
	tr.encBytes.Add(tr.id, int64(wire))
	return nil
}

// encodeLocked appends one message to oc's buffer and reports the framed
// byte count. The frame is encoded in place and its varint length slid in
// ahead of it. Caller holds tr.mu.
func (tr *Transport) encodeLocked(oc *outConn, payload any) (int, error) {
	start := len(oc.buf)
	buf, err := codec.Append(oc.buf, payload)
	if err != nil {
		oc.buf = buf[:start]
		return 0, err
	}
	frame := len(buf) - start
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(frame))
	buf = append(buf, hdr[:n]...)
	copy(buf[start+n:], buf[start:start+frame])
	copy(buf[start:], hdr[:n])
	oc.buf = buf
	return n + frame, nil
}

// write hands oc's buffer to the connection in one write and empties it,
// keeping no more than outBufSize of capacity.
func (oc *outConn) write() error {
	_, err := oc.conn.Write(oc.buf)
	if cap(oc.buf) > outBufSize {
		oc.buf = nil
	} else {
		oc.buf = oc.buf[:0]
	}
	return err
}

// Broadcast implements msgnet.Endpoint. Each peer's copy is encoded into
// its write buffer first and the buffers are flushed once per peer at
// the end, so an n-way broadcast costs one syscall per peer rather than
// one per encoded fragment. A copy that dies at flush time is a silent
// drop, same as any remote loss.
func (tr *Transport) Broadcast(payload any) error {
	for to := range tr.addrs {
		if err := tr.send(to, payload, false); err != nil {
			return fmt.Errorf("transport: broadcast: %w", err)
		}
	}
	tr.flushAll()
	return nil
}

// flushAll drains every buffered outbound connection, dropping the ones
// whose peer has gone away.
func (tr *Transport) flushAll() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for to, oc := range tr.conns {
		if len(oc.buf) == 0 {
			continue
		}
		if err := oc.write(); err != nil {
			_ = oc.conn.Close()
			delete(tr.conns, to)
		}
	}
}

// Recv implements msgnet.Endpoint.
func (tr *Transport) Recv(ctx context.Context) (msgnet.Message, error) {
	return msgnet.Recv(ctx, tr)
}

// Ready implements msgnet.Endpoint.
func (tr *Transport) Ready() <-chan struct{} { return tr.in.Ready() }

// TryRecv implements msgnet.Endpoint. After Close it returns
// msgnet.ErrClosed, whatever was still queued.
func (tr *Transport) TryRecv() (msgnet.Message, bool, error) { return tr.in.TryRecv() }

// Inbox implements msgnet.Endpoint.
func (tr *Transport) Inbox() *msgnet.Inbox { return tr.in }

// Close shuts the transport down: the listener stops, connections close,
// and blocked Recvs return msgnet.ErrClosed.
func (tr *Transport) Close() error {
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return nil
	}
	tr.closed = true
	for id, oc := range tr.conns {
		_ = oc.conn.Close()
		delete(tr.conns, id)
	}
	for conn := range tr.inbound {
		_ = conn.Close()
	}
	tr.mu.Unlock()
	tr.in.Fail(msgnet.ErrClosed)
	err := tr.ln.Close()
	tr.wg.Wait()
	return err
}

// connLocked returns the outbound connection to peer, dialing if needed.
// A fresh connection's preamble is buffered ahead of the first message,
// so it costs no extra syscall. The sender id never changes on a
// connection, so it rides in the preamble rather than in every frame.
func (tr *Transport) connLocked(to int) (*outConn, error) {
	if oc, ok := tr.conns[to]; ok {
		return oc, nil
	}
	conn, err := net.Dial("tcp", tr.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d (%s): %w", to, tr.addrs[to], err)
	}
	oc := &outConn{conn: conn, buf: bin.AppendVarint([]byte{preambleBinary}, int64(tr.id))}
	tr.conns[to] = oc
	return oc, nil
}

func (tr *Transport) acceptLoop() {
	defer tr.wg.Done()
	for {
		conn, err := tr.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			tr.mu.Lock()
			closed := tr.closed
			tr.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		tr.mu.Lock()
		if tr.closed {
			tr.mu.Unlock()
			_ = conn.Close()
			return
		}
		tr.inbound[conn] = struct{}{}
		tr.mu.Unlock()
		tr.wg.Add(1)
		go tr.readLoop(conn)
	}
}

// readLoop decodes one inbound connection until it dies. A connection
// that does not open with the binary preamble — a foreign client, or a
// peer speaking an encoding this build does not — is dropped.
func (tr *Transport) readLoop(conn net.Conn) {
	defer tr.wg.Done()
	defer func() {
		_ = conn.Close()
		tr.mu.Lock()
		delete(tr.inbound, conn)
		tr.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, outBufSize)
	if pre, err := br.ReadByte(); err != nil || pre != preambleBinary {
		return
	}
	from64, err := binary.ReadVarint(br)
	if err != nil {
		return
	}
	from := int(from64)
	var dec codec.Decoder
	var buf []byte
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxFrame {
			return
		}
		if int(n) > cap(buf) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		payload, err := dec.Decode(buf)
		if err != nil {
			// A frame that fails to decode poisons the stream offset no
			// further (frames are length-delimited), but it means the
			// peer speaks a different version — drop the connection and
			// let it redial.
			return
		}
		tr.decBytes.Add(tr.id, int64(n))
		tr.in.Push(msgnet.Message{From: from, To: tr.id, Payload: payload})
	}
}
