package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick is how a run tells the program's speed from the
// machine's. The builder and driver hosts are a few cores of a shared
// machine whose speed — thread wake-ups, loopback, fsync — wanders by a
// quarter within minutes, the same for every process on it; ten runs of
// unchanged code spread 12-35% on ops/s for that reason alone. So each
// segment of a run is bracketed by a fixed piece of work that uses the
// same resources the way the cluster does and none of the program's
// code: a miniature replicated log, closed loop, 8 clients → a leader
// that batches whatever is waiting → 2 followers → checksum (+ write +
// fsync) on all three → reply. Its throughput against a constant is the
// host's speed at that moment, and every end-to-end time or rate is
// scaled by it to what the nominal host would have shown. The same runs'
// spread falls to 3-11%. The constants only fix the scale; a change to the
// program cannot move the yardstick, a change to this file re-bases every
// number.

// substrate is one variant of the yardstick: how the leader reaches its
// followers, whether all three persist, how long it runs, and about the
// ops/s it makes on the builder host (2 vCPUs, ext4 on virtio).
type substrate struct {
	name    string
	tcp     bool
	disk    bool
	dur     time.Duration
	nominal float64
}

var (
	yardMem  = substrate{name: "mem", dur: 200 * time.Millisecond, nominal: 1.1e6}
	yardTCP  = substrate{name: "tcp", tcp: true, dur: 250 * time.Millisecond, nominal: 1.9e5}
	yardDisk = substrate{name: "tcp+fsync", tcp: true, disk: true, dur: 400 * time.Millisecond, nominal: 8000}
)

// hostSpeed runs the yardstick on the substrates a workload touches —
// goroutine hand-offs always; loopback TCP and fsync when the cluster
// uses them — and returns the geometric mean of measured / nominal: 1 on
// the nominal host, 0.8 on one a fifth slower. parts holds the ratio of
// each substrate, for the run's report.
func hostSpeed(dir string, tcp bool) (speed float64, parts []float64, err error) {
	subs := yardSubstrates(tcp)
	logSum := 0.0
	for _, s := range subs {
		rate, err := s.run(dir)
		if err != nil {
			return 0, nil, fmt.Errorf("yardstick %s: %w", s.name, err)
		}
		if rate <= 0 {
			return 0, nil, fmt.Errorf("yardstick %s: completed nothing", s.name)
		}
		parts = append(parts, rate/s.nominal)
		logSum += math.Log(rate / s.nominal)
	}
	return math.Exp(logSum / float64(len(subs))), parts, nil
}

func yardSubstrates(tcp bool) []substrate {
	if tcp {
		return []substrate{yardMem, yardTCP, yardDisk}
	}
	return []substrate{yardMem}
}

const (
	yardClients = 8
	yardRecord  = 128 // bytes per op in a batch
)

// yardLog is one member's log: a checksum always, a file that is written
// and fsynced when the substrate has a disk.
type yardLog struct{ f *os.File }

func (l yardLog) persist(b []byte) error {
	sum := sha256.Sum256(b)
	if l.f == nil {
		return nil
	}
	if _, err := l.f.Write(sum[:]); err != nil {
		return err
	}
	if _, err := l.f.Write(b); err != nil {
		return err
	}
	return l.f.Sync()
}

// yardFollower is the leader's end of one follower.
type yardFollower struct {
	send func(batch []byte) error
	ack  func() error
}

// run drives the yardstick for s.dur and returns completed ops/s. Every
// goroutine, socket and file it makes is gone when it returns.
func (s substrate) run(dir string) (float64, error) {
	var members sync.WaitGroup // follower goroutines
	defer members.Wait()       // deferred first, so it runs after the closers have hung them up
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	openLog := func(i int) (yardLog, error) {
		if !s.disk {
			return yardLog{}, nil
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("yardstick-%d.log", i)))
		if err != nil {
			return yardLog{}, err
		}
		closers = append(closers, func() { _ = f.Close(); _ = os.Remove(f.Name()) })
		return yardLog{f}, nil
	}

	followers := make([]yardFollower, 2)
	for i := range followers {
		log, err := openLog(i + 1)
		if err != nil {
			return 0, err
		}
		if !s.tcp {
			in, acks := make(chan []byte, 1), make(chan error, 1)
			members.Add(1)
			go func() {
				defer members.Done()
				for b := range in {
					acks <- log.persist(b)
				}
			}()
			closers = append(closers, func() { close(in) })
			followers[i] = yardFollower{
				send: func(b []byte) error { in <- b; return nil },
				ack:  func() error { return <-acks },
			}
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			_ = ln.Close()
			return 0, err
		}
		peer, err := ln.Accept()
		_ = ln.Close()
		if err != nil {
			_ = conn.Close()
			return 0, err
		}
		closers = append(closers, func() { _ = conn.Close(); _ = peer.Close() })
		members.Add(1)
		go func() {
			defer members.Done()
			var hdr [2]byte
			buf := make([]byte, yardClients*yardRecord)
			for {
				if _, err := io.ReadFull(peer, hdr[:]); err != nil {
					return // the leader hung up
				}
				b := buf[:int(hdr[0])<<8|int(hdr[1])]
				if _, err := io.ReadFull(peer, b); err != nil {
					return
				}
				hdr[0] = 0
				if log.persist(b) != nil {
					hdr[0] = 1
				}
				if _, err := peer.Write(hdr[:1]); err != nil {
					return
				}
			}
		}()
		out := make([]byte, 2+yardClients*yardRecord)
		var one [1]byte
		followers[i] = yardFollower{
			send: func(b []byte) error {
				out[0], out[1] = byte(len(b)>>8), byte(len(b))
				_, err := conn.Write(out[:2+copy(out[2:], b)])
				return err
			},
			ack: func() error {
				if _, err := io.ReadFull(conn, one[:]); err != nil {
					return err
				}
				if one[0] != 0 {
					return fmt.Errorf("follower could not persist")
				}
				return nil
			},
		}
	}
	own, err := openLog(0)
	if err != nil {
		return 0, err
	}

	// Clients, closed loop: hand the leader a reply channel, wait on it.
	proposals := make(chan chan struct{}, yardClients)
	var completed atomic.Int64
	var clients sync.WaitGroup
	start := time.Now()
	for i := 0; i < yardClients; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			reply := make(chan struct{}, 1)
			for time.Since(start) < s.dur {
				proposals <- reply
				if _, ok := <-reply; !ok {
					return // the leader failed
				}
				completed.Add(1)
			}
		}()
	}

	// The leader: take what is waiting as one batch, replicate, persist,
	// collect both acks, reply to the batch.
	leaderDone := make(chan error, 1)
	go func() {
		frame := make([]byte, yardClients*yardRecord)
		batch := make([]chan struct{}, 0, yardClients)
		fail := func(err error) {
			for _, r := range batch {
				close(r)
			}
			for r := range proposals {
				close(r)
			}
			leaderDone <- err
		}
		for first := range proposals {
			batch = append(batch[:0], first)
			for more := true; more && len(batch) < yardClients; {
				select {
				case r, ok := <-proposals:
					if more = ok; ok {
						batch = append(batch, r)
					}
				default:
					more = false
				}
			}
			b := frame[:len(batch)*yardRecord]
			for _, f := range followers {
				if err := f.send(b); err != nil {
					fail(err)
					return
				}
			}
			if err := own.persist(b); err != nil {
				fail(err)
				return
			}
			for _, f := range followers {
				if err := f.ack(); err != nil {
					fail(err)
					return
				}
			}
			for _, r := range batch {
				r <- struct{}{}
			}
		}
		leaderDone <- nil
	}()

	clients.Wait()
	elapsed := time.Since(start).Seconds()
	close(proposals)
	if err := <-leaderDone; err != nil {
		return 0, err
	}
	return float64(completed.Load()) / elapsed, nil
}
