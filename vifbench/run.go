package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/innetworkfiltering/vif"
	"github.com/innetworkfiltering/vif/internal/bypass"
	"github.com/innetworkfiltering/vif/internal/rules"
)

const (
	// maxPackets bounds the packet index space of one run (and so the
	// delivered bitmap, 32 MiB, whose pages are touched only as packets
	// are delivered). A saturation phase that reaches it ends early.
	maxPackets = 1 << 28
	// satWindow is the sampling window of the saturation phase; sat_mpps
	// is the median window rate, which discards windows hit by CPU steal.
	satWindow = 100 * time.Millisecond
	// omitted is how many delivered packets the victim leaves out of its
	// log before the negative-control audit.
	omitted = 32
	// setups is how many times a run builds the deployment from nothing;
	// setup_s is the median. Half run before the measured phases and half
	// after the teardown, so a slow spell of the host does not hold them
	// all. Both halves run before the benchmark's own large buffers exist
	// or after they are dropped: a set-up's time depends on how often the
	// collector runs, and so on the live heap around it (a spoof-flood
	// set-up took 81 ms with nothing else live, 24 ms with 128 MiB live).
	setups = 32
)

// runner executes one workload run: repeated set-up, a warm-up, the
// closed-loop saturation phase, then the open-loop paced phase with live
// deltas and audits, and finally the checks.
type runner struct {
	w       *workload
	seconds float64
	epoch   time.Time
	initial [][]rules.Rule
	rec     *recorder
	dep     *deployment
	prod    *producer
	tr      *tracer // nil in the untraced run

	setupTimes []time.Duration
	satRates   []float64
	// latencies holds the quiet window's paced bursts (last delivery
	// minus due time, ns), ctlLatencies the control window's.
	latencies    []int64
	ctlLatencies []int64
	lateness     []int64
	deltaTimes   []time.Duration
	auditTimes   []time.Duration
	deltas       []deltaRec
	// cursor[v] is the next packet index victim v has yet to observe.
	cursor []uint64
	// negDone is set once the negative-control audit's verdict was checked.
	negDone bool
	audits  int

	attempted, failed uint64
	errs              []string // correctness failures
}

func newRunner(w *workload, seconds float64, tr *tracer) *runner {
	r := &runner{w: w, seconds: seconds, epoch: time.Now(), tr: tr, cursor: make([]uint64, w.spec.victims)}
	for v := range w.victims {
		r.initial = append(r.initial, toRules(w.victims[v].initial))
	}
	r.rec = newRecorder(r.epoch)
	return r
}

func (r *runner) errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *runner) phase(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// run executes the phases; the caller finishes the run and tears the
// deployment down (r.dep is non-nil once set-up succeeded).
func (r *runner) run() error {
	var tel *vif.Telemetry
	if r.tr != nil {
		tel = vif.NewTelemetry(vif.TelemetryConfig{Shards: 1})
	}
	if err := r.buildDeployments(setups/2, true, tel); err != nil {
		return err
	}
	r.rec.delivered = make(bitmap, maxPackets/64)
	if r.tr != nil {
		if err := r.tr.setupLayers(r); err != nil {
			return err
		}
	}
	r.prod = newProducer(r.w, r.dep.sess, maxPackets)

	warm := r.phase(0.05)
	if warm < 200*time.Millisecond {
		warm = 200 * time.Millisecond
	}
	if err := r.prod.closedLoop(time.Now().Add(warm)); err != nil {
		return err
	}
	r.flushAudits()
	if r.tr != nil {
		// The traced run measures its own cost: the same phase untraced,
		// then traced.
		r.tr.untracedSat = median(r.saturate(r.phase(0.175)))
		r.flushAudits()
		r.tr.hookProducer(r)
		r.satRates = r.saturate(r.phase(0.175))
		r.prod.onBurst = nil
	} else {
		r.satRates = r.saturate(r.phase(0.35))
	}
	r.flushAudits()
	if err := r.paced(r.phase(0.25), r.phase(0.35)); err != nil {
		return err
	}
	r.flushAudits()
	if !r.negDone {
		r.errorf("no audit ran the negative control")
	}
	return nil
}

// buildDeployments sets the deployment up n times from nothing, timing
// each, and keeps the last one as r.dep when keep is set.
func (r *runner) buildDeployments(n int, keep bool, tel *vif.Telemetry) error {
	for k := 0; k < n; k++ {
		runtime.GC()
		span := r.tr.begin("setup", 0)
		dep, dt, err := setup(r.w, r.initial, r.rec.deliver, tel)
		r.tr.end(span)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupTimes = append(r.setupTimes, dt)
		if keep && k == n-1 {
			r.dep = dep
		} else {
			dep.teardown()
		}
	}
	return nil
}

// saturate runs the closed loop for dur and returns the processed-packet
// rate of each full sampling window.
func (r *runner) saturate(dur time.Duration) []float64 {
	// Collect the garbage the audits before left, so no collection cycle
	// from earlier work runs in the measured phase.
	runtime.GC()
	until := time.Now().Add(dur)
	errc := make(chan error, 1)
	go func() { errc <- r.prod.closedLoop(until) }()
	tick := time.NewTicker(satWindow)
	defer tick.Stop()
	var rates []float64
	prev, tPrev := r.dep.eng.Metrics().Processed, time.Now()
	for {
		select {
		case err := <-errc:
			if err != nil {
				r.failed++
				r.errorf("closed loop: %v", err)
			}
			r.dep.eng.WaitDrained()
			return rates
		case t := <-tick.C:
			if t.After(until) {
				continue // the producer stops inside this window
			}
			cur := r.dep.eng.Metrics().Processed
			rates = append(rates, float64(cur-prev)/t.Sub(tPrev).Seconds())
			prev, tPrev = cur, t
		}
	}
}

// paced runs the open loop at the workload's rate: first a quiet window
// of traffic alone, whose bursts give the latency, then a control window
// in which this goroutine applies a fixed number of deltas, one every
// deltaPeriod, with an audit after every auditEvery of them. The counts
// depend only on the run length, so every run ends with the same rule
// churn behind it.
func (r *runner) paced(quiet, control time.Duration) error {
	nDeltas := int(control / r.w.deltaPeriod)
	n := int(3*r.w.pacedPps*(quiet+control).Seconds()/burstLen) + 1024
	log := &pacedLog{due: make([]int64, n), late: make([]int64, n)}
	r.rec.lastDel = make([]int64, n)
	runtime.GC() // as in saturate: the quiet window starts with no cycle due
	r.rec.pacedBase.Store(r.prod.next * burstLen)
	r.prod.stop.Store(false)
	r.prod.done = make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(r.prod.done)
		errc <- r.prod.openLoop(r.w.pacedPps, r.epoch, log)
	}()
	if r.tr != nil {
		r.tr.startDepthPoll(r)
	}
	quietEnd := time.Now().Add(quiet)
	time.Sleep(quiet)
	for k := 0; k < nDeltas; k++ {
		time.Sleep(time.Until(quietEnd.Add(time.Duration(k) * r.w.deltaPeriod)))
		if !r.applyDelta(k % r.w.spec.victims) {
			break
		}
		if (k+1)%r.w.auditEvery == 0 && r.prod.pause() {
			r.audit((k/r.w.auditEvery)%r.w.spec.victims, true)
			r.prod.resume()
		}
	}
	r.prod.stop.Store(true)
	err := <-errc
	if r.tr != nil {
		r.tr.stopDepthPoll()
	}
	r.dep.eng.WaitDrained()
	split := int64(quietEnd.Sub(r.epoch))
	for k := 0; k < log.n; k++ {
		r.lateness = append(r.lateness, log.late[k])
		d := r.rec.lastDel[k]
		if d == 0 {
			continue // every packet of the burst was dropped
		}
		if log.due[k] < split {
			r.latencies = append(r.latencies, d-log.due[k])
		} else {
			r.ctlLatencies = append(r.ctlLatencies, d-log.due[k])
		}
	}
	if n := len(r.prod.refused); n > 0 {
		r.failed += uint64(n)
		r.errorf("paced phase: the engine refused %d packets", n)
	}
	return err
}

// applyDelta draws victim v's next delta and applies it to the live
// engine, timing Session.ReconfigureDelta. It reports false after a
// failed delta: the rule state is then unknown, so no further deltas run.
func (r *runner) applyDelta(v int) bool {
	d := r.w.nextDelta(v)
	adds, removes := toRules(d.adds), removeRules(d.removes)
	pStart := r.dep.eng.Metrics().Processed
	span := r.tr.begin("delta", 0)
	t := time.Now()
	err := r.dep.sess[v].ReconfigureDelta(adds, removes)
	dt := time.Since(t)
	r.tr.end(span)
	iEnd := r.prod.issued.Load()
	r.attempted++
	if err != nil {
		// The delta may or may not have reached the worker: every later
		// packet may have met either rule list.
		r.deltas = append(r.deltas, deltaRec{delta: d, pStart: pStart, iEnd: ^uint64(0)})
		r.failed++
		r.errorf("delta %d of victim %d: %v", len(r.deltas), v, err)
		return false
	}
	r.deltas = append(r.deltas, deltaRec{delta: d, pStart: pStart, iEnd: iEnd})
	r.deltaTimes = append(r.deltaTimes, dt)
	if r.tr != nil {
		r.tr.deltaLayers(r, d, span)
	}
	return true
}

// observe feeds victim v's verifier every packet delivered to it since
// its last audit, leaving out the first skip of them, and returns how many
// it left out. The engine must be drained, so nothing is in flight.
func (r *runner) observe(v int, skip int) int {
	end := r.prod.next * burstLen
	s := r.dep.sess[v]
	skipped := 0
	for b := r.cursor[v] / burstLen; b < end/burstLen; b++ {
		if r.w.victimOf(b*burstLen) != v {
			continue
		}
		for i := b * burstLen; i < (b+1)*burstLen; i++ {
			if !r.rec.delivered.get(i) {
				continue
			}
			if skipped < skip {
				skipped++
				continue
			}
			if r.tr != nil {
				r.tr.observe(v, r.w.packet(i))
			} else {
				s.ObserveDelivered(r.w.packet(i))
			}
		}
	}
	r.cursor[v] = end
	return skipped
}

// audit drains the engine, lets victim v observe what it received, and
// audits the epoch (timing Session.AuditEngineEpoch when timed). The first
// timed audit whose epoch delivered anything is the negative control: the
// victim leaves out up to omitted delivered packets, and the audit must
// report exactly that many dropped after filtering. Every other audit must
// come back clean. The caller has parked the producer (or none runs).
func (r *runner) audit(v int, timed bool) {
	r.dep.eng.WaitDrained()
	skip := 0
	if timed && !r.negDone {
		skip = omitted
	}
	skipped := r.observe(v, skip)
	var (
		verdict bypass.Verdict
		err     error
		dt      time.Duration
	)
	if r.tr != nil {
		verdict, dt, err = r.tr.audit(r, v)
	} else {
		t := time.Now()
		verdict, err = r.dep.sess[v].AuditEngineEpoch()
		dt = time.Since(t)
	}
	r.attempted++
	r.audits++
	if err != nil {
		r.failed++
		r.errorf("audit of victim %d: %v", v, err)
		return
	}
	if timed {
		r.auditTimes = append(r.auditTimes, dt)
	}
	switch {
	case skipped > 0:
		r.negDone = true
		if verdict.Clean || verdict.DropAfterFilter != uint64(skipped) {
			r.errorf("negative-control audit of victim %d with %d delivered packets left out: %+v", v, skipped, verdict)
		}
	case !verdict.Clean:
		r.errorf("audit of victim %d not clean: %s", v, verdict.Detail)
	}
}

// flushAudits audits every victim with no traffic flowing, outside the
// timed audits: it closes the epoch of the phase that just ended.
func (r *runner) flushAudits() {
	r.dep.eng.WaitDrained()
	for v := range r.dep.sess {
		r.audit(v, false)
	}
}
