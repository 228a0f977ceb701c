package main

import (
	"errors"
	"sync/atomic"
	"time"

	"github.com/innetworkfiltering/vif"
)

// producer is the workload's single producer goroutine. It generates
// burst after burst in index order and hands each to its victim's
// session.
type producer struct {
	w         *workload
	sess      []*vif.Session
	buf       []vif.Descriptor
	next      uint64 // next burst to generate
	maxBursts uint64
	// issued bounds the packets handed to the engine: every packet below
	// it has been offered. The control goroutine reads it after a delta.
	issued atomic.Uint64
	// refused lists paced-phase packets the engine did not accept.
	refused []uint64
	// pauseReq asks the paced loop to park at its next burst boundary
	// (acknowledged on parked, released through resume), so an audit can
	// drain the engine and observe every delivered packet first.
	pauseReq        atomic.Bool
	parked, resumed chan struct{}
	// stop ends the paced loop at its next burst.
	stop atomic.Bool
	// done is closed when the paced loop returns, so a pause request
	// racing the end of the phase never waits for a park that cannot come.
	done chan struct{}
	// onBurst, when set, replaces the plain InjectBatch call (the traced
	// run wraps it in spans).
	onBurst func(s *vif.Session, ds []vif.Descriptor) (int, error)
}

var errBudget = errors.New("packet index space exhausted")

func newProducer(w *workload, sess []*vif.Session, maxPackets uint64) *producer {
	return &producer{
		w: w, sess: sess,
		buf:       make([]vif.Descriptor, burstLen),
		maxBursts: maxPackets / burstLen,
		parked:    make(chan struct{}),
		resumed:   make(chan struct{}),
	}
}

func (p *producer) inject(s *vif.Session, ds []vif.Descriptor) (int, error) {
	if p.onBurst != nil {
		return p.onBurst(s, ds)
	}
	return s.InjectBatch(ds)
}

// closedLoop offers bursts back to back until the deadline (or the end of
// the packet index space), offering again exactly the packets the engine
// refused, so each packet is filtered once.
func (p *producer) closedLoop(until time.Time) error {
	for time.Now().Before(until) && p.next < p.maxBursts {
		p.w.fill(p.next, p.buf)
		s := p.sess[p.w.victimOf(p.next*burstLen)]
		p.issued.Store((p.next + 1) * burstLen)
		for off := 0; off < burstLen; {
			n, err := p.inject(s, p.buf[off:])
			if err != nil {
				return err
			}
			off += n
		}
		p.next++
	}
	return nil
}

// pacedLog holds the open-loop schedule: each burst's due time and how
// late the generator offered it, in ns since the run's epoch.
type pacedLog struct {
	due, late []int64
	n         int
}

// openLoop offers one burst every burstLen/rate seconds, whatever the
// engine does, until stop is set (or the log is full). A refused packet
// is not offered again: it is a failure.
func (p *producer) openLoop(rate float64, epoch time.Time, log *pacedLog) error {
	interval := float64(time.Second) * burstLen / rate
	t0 := time.Now()
	for k := 0; k < len(log.due) && !p.stop.Load(); k++ {
		if p.next >= p.maxBursts {
			return errBudget
		}
		due := t0.Add(time.Duration(float64(k) * interval))
		p.w.fill(p.next, p.buf)
		if p.pauseReq.Load() {
			p.parked <- struct{}{}
			<-p.resumed
		}
		spinUntil(due)
		start := time.Now()
		s := p.sess[p.w.victimOf(p.next*burstLen)]
		p.issued.Store((p.next + 1) * burstLen)
		n, err := p.inject(s, p.buf)
		if err != nil {
			return err
		}
		// One shard: the engine accepts a prefix of the burst.
		for j := n; j < burstLen; j++ {
			p.refused = append(p.refused, p.next*burstLen+uint64(j))
		}
		log.due[k] = int64(due.Sub(epoch))
		log.late[k] = int64(start.Sub(due))
		log.n = k + 1
		p.next++
	}
	return nil
}

// pause parks the paced loop at its next burst boundary and reports
// whether it parked (false once the loop has ended); resume releases a
// parked loop.
func (p *producer) pause() bool {
	p.pauseReq.Store(true)
	select {
	case <-p.parked:
		return true
	case <-p.done:
		p.pauseReq.Store(false)
		return false
	}
}

func (p *producer) resume() {
	p.pauseReq.Store(false)
	p.resumed <- struct{}{}
}

// spinUntil busy-waits on the clock until t. The generator keeps its CPU
// between bursts: a generator that slept was woken onto the CPU the shard
// worker spins on, and offered a third of its bursts at half speed.
func spinUntil(t time.Time) {
	for time.Now().Before(t) {
	}
}
