package main

import (
	"bufio"
	"crypto/rand"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/innetworkfiltering/vif"
	"github.com/innetworkfiltering/vif/internal/attest"
	"github.com/innetworkfiltering/vif/internal/bypass"
	"github.com/innetworkfiltering/vif/internal/classify"
	"github.com/innetworkfiltering/vif/internal/cluster"
	"github.com/innetworkfiltering/vif/internal/dist"
	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/lb"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/secure"
)

// traceDir is where the traced run writes its spans, relative to the
// directory the benchmark runs from.
const traceDir = ".bench_build/trace"

// maxReplayBursts bounds the offline replay of saturation bursts through
// the replica filter stack.
const maxReplayBursts = 4000

// span is one timed call, kept in memory until the run ends. n is the
// work it covered (packets, flows) for per-unit reductions.
type span struct {
	id, parent int
	name       string
	start, end int64 // ns since the tracer's epoch
	n          int
}

// tracer records spans around calls into each layer's public functions,
// all from the benchmark's own code. Where a layer runs inside the engine
// (the worker's filter stages) or inside a facade call (planning,
// attestation), it times the same public function on a replica the
// benchmark builds from the same inputs. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span

	untracedSat float64
	satFirst    uint64 // first and end burst of the traced saturation phase
	satEnd      uint64

	bal       []*lb.Balancer // replica balancer per victim
	routeOut  []int32
	matches   int                      // rule-set matches RouteBatch ran
	verifiers []*bypass.VictimVerifier // the victims' logs in the traced run
	macKeys   []map[uint64][32]byte
	replica   []*cluster.Cluster // replica fleets following the deltas
	filters   []*filter.Filter   // replica filters for the burst replay
	sketchMB  float64

	depthStop chan struct{}
	depthWG   sync.WaitGroup
	depthSum  float64
	depthN    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].end = t.now()
}

func (t *tracer) endN(id, n int) {
	t.end(id)
	t.spans[id-1].n = n
}

// inner records a span the program timed itself inside the call of span
// parent, which just ended: its classifier build, read back through
// Filter.ClassifierStats. It is placed at the end of its parent.
func (t *tracer) inner(name string, parent int, d time.Duration) {
	end := t.spans[parent-1].end
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: end - int64(d), end: end})
}

// setupLayers times the set-up layers on replicas of each victim's
// inputs: the filter build (trie plus the classifier compile it times
// itself), fleet placement, and one enclave's attestation round. It also
// builds the replicas the later phases use.
func (t *tracer) setupLayers(r *runner) error {
	model := enclave.DefaultCostModel()
	platform, err := r.dep.service.CertifyPlatform("bench-ix-replica")
	if err != nil {
		return err
	}
	epc := float64(model.EPCBytes)
	in := dist.Instance{G: 10e9, M: epc, U: epc / float64(r.w.maxRules), V: 2e6, Alpha: 1, Lambda: 0.2}
	for v, rs := range r.initial {
		set, err := rules.NewSet(rs, true)
		if err != nil {
			return err
		}
		encl, err := enclave.New(vif.FilterIdentity(), model)
		if err != nil {
			return err
		}
		sp := t.begin("filter.new", 0)
		f, err := filter.New(encl, set, filter.Config{})
		t.end(sp)
		if err != nil {
			return err
		}
		_, _, compile := f.ClassifierStats()
		t.inner("classify.compile", sp, compile)
		t.filters = append(t.filters, f)

		// cluster.New places the fleet with the greedy over a uniform
		// traffic estimate (1 byte per rule over a 5 s window).
		inst := in
		inst.B = make([]float64, set.Len())
		for i := range inst.B {
			inst.B[i] = 8.0 / 5
		}
		sp = t.begin("dist.place", 0)
		_, err = dist.Greedy(inst, dist.GreedyOptions{})
		t.end(sp)
		if err != nil {
			return err
		}

		c, err := cluster.New(cluster.Config{
			Identity: vif.FilterIdentity(), Model: model, Platform: platform,
			Dist: in, MaxEnclaves: 50, PinnedEnclaves: 1,
		}, set)
		if err != nil {
			return err
		}
		t.replica = append(t.replica, c)

		shares := make(map[uint32][]float64, set.Len())
		for _, rr := range set.Rules {
			shares[rr.ID] = []float64{1}
		}
		b, err := lb.New(lb.Config{FullSet: set, Shares: shares, N: 1})
		if err != nil {
			return err
		}
		t.bal = append(t.bal, b)

		ns, _ := r.dep.sess[v].Namespace()
		keys := make(map[uint64][32]byte)
		for _, lf := range r.dep.eng.NamespaceFilters(ns) {
			keys[lf.Enclave().ID()] = lf.Enclave().MACKey()
			sp = t.begin("attest.session", 0)
			err := attestOnce(r.dep.service, platform, lf.Enclave())
			t.end(sp)
			if err != nil {
				return err
			}
		}
		t.macKeys = append(t.macKeys, keys)
		t.verifiers = append(t.verifiers, bypass.NewVictimVerifier())
	}
	return nil
}

// attestOnce is the victim's per-enclave round inside RequestFiltering:
// quote over a fresh nonce bound to an ephemeral key, verification
// against the service root and the pinned measurement, the channel
// handshake, and the MAC-key release through it.
func attestOnce(svc *attest.Service, platform *attest.Platform, e *enclave.Enclave) error {
	var nonce [32]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	ek, err := secure.NewKeyPair()
	if err != nil {
		return err
	}
	q, err := platform.GenerateQuote(e, nonce, secure.BindingReportData(ek.PublicBytes()))
	if err != nil {
		return err
	}
	if err := attest.VerifyQuote(svc.RootPublicKey(), svc, q, nonce, vif.FilterIdentity().Measurement()); err != nil {
		return err
	}
	if !secure.VerifyBinding(q.ReportData, ek.PublicBytes()) {
		return fmt.Errorf("channel key not bound to quote")
	}
	vk, err := secure.NewKeyPair()
	if err != nil {
		return err
	}
	ec, err := secure.Establish(ek, vk.PublicBytes(), secure.RoleEnclave)
	if err != nil {
		return err
	}
	vc, err := secure.Establish(vk, ek.PublicBytes(), secure.RoleVictim)
	if err != nil {
		return err
	}
	mk := e.MACKey()
	_, err = vc.Open(ec.Seal(mk[:]))
	return err
}

// hookProducer wraps each burst of the traced saturation phase: the
// replica balancer's RouteBatch on the burst, then Session.InjectBatch.
func (t *tracer) hookProducer(r *runner) {
	t.satFirst = r.prod.next
	t.routeOut = make([]int32, burstLen)
	r.prod.onBurst = func(s *vif.Session, ds []vif.Descriptor) (int, error) {
		v := r.w.victimOf(uint64(ds[0].Ref))
		parent := 0
		if len(ds) == burstLen {
			for i := range ds {
				if i == 0 || ds[i].Tuple != ds[i-1].Tuple {
					t.matches++
				}
			}
			parent = t.begin("burst", 0)
			sp := t.begin("lb.route", parent)
			t.bal[v].RouteBatch(ds, t.routeOut)
			t.endN(sp, len(ds))
		}
		sp := t.begin("session.inject", parent)
		n, err := s.InjectBatch(ds)
		t.endN(sp, n)
		if parent != 0 {
			t.end(parent)
		}
		t.satEnd = r.prod.next + 1
		return n, err
	}
}

// deltaLayers times, after the live delta, the same change on the
// replica fleet: cluster planning (with its lb.New) and the filter delta,
// with the classifier patch the filter times itself.
func (t *tracer) deltaLayers(r *runner, d delta, parent int) {
	c := t.replica[d.victim]
	sp := t.begin("cluster.plan_delta", parent)
	plan, err := c.PlanDelta(toRules(d.adds), removeRules(d.removes))
	t.end(sp)
	if err != nil {
		r.errorf("replica plan delta: %v", err)
		return
	}
	f := c.Filters()[0]
	sp = t.begin("filter.delta", parent)
	err = f.ReconfigureDelta(plan.PerShard[0])
	t.end(sp)
	if err != nil {
		r.errorf("replica filter delta: %v", err)
		return
	}
	_, _, patch := f.ClassifierStats()
	t.inner("classify.delta", sp, patch)
	c.CommitDelta(plan)
}

// observe feeds the traced run's own victim log.
func (t *tracer) observe(v int, tuple packet.FiveTuple) { t.verifiers[v].Observe(tuple) }

// audit is Session.AuditEngineEpoch taken apart into the layer calls it
// makes: Engine.RotateEpoch, bypass.MergeSnapshots and
// VictimVerifier.CheckSketch.
func (t *tracer) audit(r *runner, v int) (bypass.Verdict, time.Duration, error) {
	ns, _ := r.dep.sess[v].Namespace()
	start := time.Now()
	parent := t.begin("audit", 0)
	defer t.end(parent)
	sp := t.begin("engine.rotate", parent)
	logs, err := r.dep.eng.RotateEpoch(ns)
	t.end(sp)
	if err != nil {
		return bypass.Verdict{}, 0, err
	}
	snaps := make([]*filter.SignedSnapshot, len(logs))
	for i, l := range logs {
		snaps[i] = l.Outgoing
	}
	sp = t.begin("bypass.merge", parent)
	merged, err := bypass.MergeSnapshots(t.macKeys[v], snaps)
	t.end(sp)
	if err != nil {
		return bypass.Verdict{}, 0, err
	}
	sp = t.begin("bypass.check", parent)
	verdict, err := t.verifiers[v].CheckSketch(merged)
	t.end(sp)
	t.verifiers[v].Reset()
	t.sketchMB = float64(merged.MemoryBytes()) / (1 << 20)
	return verdict, time.Since(start), err
}

// startDepthPoll samples the shard ring's occupancy through the paced
// phase.
func (t *tracer) startDepthPoll(r *runner) {
	t.depthStop = make(chan struct{})
	t.depthWG.Add(1)
	go func() {
		defer t.depthWG.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.depthStop:
				return
			case <-tick.C:
				m := r.dep.eng.Metrics()
				t.depthSum += float64(m.QueueDepth)
				t.depthN++
			}
		}
	}()
}

func (t *tracer) stopDepthPoll() {
	close(t.depthStop)
	t.depthWG.Wait()
}

// replay pushes the traced saturation bursts (at most maxReplayBursts,
// evenly spaced) through replica filters with the initial rules — the
// worker's three stages, timed one by one — and each burst's distinct
// flows through a replica classifier.
func (t *tracer) replay(r *runner) {
	progs := make([]*classify.Program, len(r.initial))
	for v, rs := range r.initial {
		progs[v] = classify.Compile(rs, nil, int32(len(rs)-1))
	}
	step := uint64(1)
	if span := t.satEnd - t.satFirst; span > maxReplayBursts {
		step = span / maxReplayBursts
	}
	buf := make([]vif.Descriptor, burstLen)
	verdicts := make([]filter.Verdict, burstLen)
	var sc classify.BatchScratch
	seen := make(map[packet.FiveTuple]bool, burstLen)
	var flows []packet.FiveTuple
	for b := t.satFirst; b < t.satEnd; b += step {
		r.w.fill(b, buf)
		v := r.w.victimOf(b * burstLen)
		f := t.filters[v]
		clear(seen)
		flows = flows[:0]
		for _, d := range buf {
			if !seen[d.Tuple] {
				seen[d.Tuple] = true
				flows = append(flows, d.Tuple)
			}
		}
		parent := t.begin("replay", 0)
		sp := t.begin("filter.classify_burst", parent)
		f.ClassifyBurst(buf, verdicts)
		t.endN(sp, len(buf))
		sp = t.begin("sketch.apply", parent)
		f.ApplyBurst()
		t.endN(sp, len(buf))
		sp = t.begin("enclave.charge", parent)
		f.ChargeBurst()
		t.endN(sp, len(buf))
		sp = t.begin("classify.batch", parent)
		progs[v].ClassifyBatch(flows, &sc)
		t.endN(sp, len(flows))
		t.endN(parent, len(buf))
	}
}

// reduce turns the spans into the per-layer metrics and writes them out.
func (t *tracer) reduce(r *runner) map[string]metric {
	t.replay(r)
	type agg struct {
		ns, n int64
		ms    []float64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.ns += s.end - s.start
		a.n += int64(s.n)
		a.ms = append(a.ms, float64(s.end-s.start)/1e6)
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{}
	}
	perUnit := func(name string) float64 {
		a := get(name)
		if a.n == 0 {
			return 0
		}
		return float64(a.ns) / float64(a.n)
	}
	med := func(name string) float64 { return median(get(name).ms) }

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	satPkts := float64(get("lb.route").n)
	route := perUnit("lb.route")
	inject := float64(get("session.inject").ns)/satPkts - route
	put("lb.route_ns_pkt", route, "ns")
	put("lb.matches_per_pkt", float64(t.matches)/satPkts, "ratio")
	put("engine.inject_ns_pkt", inject, "ns")
	depth := 0.0
	if t.depthN > 0 {
		depth = t.depthSum / float64(t.depthN)
	}
	put("pipeline.ring_depth", depth, "count")
	cls, apply, charge := perUnit("filter.classify_burst"), perUnit("sketch.apply"), perUnit("enclave.charge")
	put("filter.classify_burst_ns_pkt", cls, "ns")
	put("filter.flows_per_pkt", float64(get("classify.batch").n)/float64(get("filter.classify_burst").n), "ratio")
	put("classify.batch_ns_flow", perUnit("classify.batch"), "ns")
	put("sketch.apply_ns_pkt", apply, "ns")
	put("enclave.charge_ns_pkt", charge, "ns")

	m := r.dep.eng.Metrics()
	for _, name := range []string{"classify", "sketch", "charge"} {
		put("module."+name+"_ns_pkt", 0, "ns") // stays 0 if telemetry sampled no burst
	}
	for _, st := range m.Shards[0].Stages {
		switch st.Stage {
		case "classify", "sketch", "charge":
			put("module."+st.Stage+"_ns_pkt", st.NsPerPacket, "ns")
		}
	}
	wall := 1e9 / t.untracedSat
	put("engine.residual_ns_pkt", wall-(route+inject+cls+apply+charge), "ns")
	var modeled, processed float64
	for _, nm := range m.Namespaces {
		modeled += nm.NsPerPacket * float64(nm.Processed)
		processed += float64(nm.Processed)
	}
	put("enclave.modeled_ns_pkt", modeled/processed, "ns")

	plan, fdelta, cdelta, delta := med("cluster.plan_delta"), med("filter.delta"), med("classify.delta"), med("delta")
	put("cluster.plan_delta_ms", plan, "ms")
	put("filter.delta_ms", fdelta, "ms")
	put("classify.delta_ms", cdelta, "ms")
	put("trie.diff_ms", fdelta-cdelta, "ms")
	put("engine.delta_wait_ms", delta-plan-fdelta, "ms")

	compile := med("classify.compile")
	put("classify.compile_ms", compile, "ms")
	put("trie.build_ms", med("filter.new")-compile, "ms")
	put("dist.place_ms", med("dist.place"), "ms")
	put("attest.session_ms", med("attest.session"), "ms")
	put("engine.rotate_ms", med("engine.rotate"), "ms")
	put("bypass.merge_ms", med("bypass.merge"), "ms")
	put("bypass.check_ms", med("bypass.check"), "ms")

	var trieB, clsB, filters float64
	for _, s := range r.dep.sess {
		ns, _ := s.Namespace()
		for _, f := range r.dep.eng.NamespaceFilters(ns) {
			idx, set, _ := f.ClassifierStats()
			clsB += float64(idx + set)
			trieB += float64(f.RuleMemoryBytes() - idx - set)
			filters++
		}
	}
	put("trie.mb", trieB/(1<<20), "MB")
	put("classify.mb", clsB/(1<<20), "MB")
	put("sketch.mb", 2*t.sketchMB*filters, "MB")
	put("trace.sat_ratio", median(r.satRates)/t.untracedSat, "ratio")
	put("trace.untraced_sat_mpps", t.untracedSat/1e6, "Mpps")

	for name, v := range out {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.errorf("per-layer metric %s is %v", name, v.Value)
			out[name] = metric{0, v.Unit}
		}
	}
	if err := t.write(r); err != nil {
		r.errorf("write spans: %v", err)
	}
	return out
}

// write stores the spans as CSV: id, parent, name, start_ns, end_ns, n.
func (t *tracer) write(r *runner) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.csv", r.w.spec.name, r.w.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns,n")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d\n", s.id, s.parent, s.name, s.start, s.end, s.n)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), path)
	return f.Close()
}
