package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/innetworkfiltering/vif"
	"github.com/innetworkfiltering/vif/internal/attest"
	"github.com/innetworkfiltering/vif/internal/rpki"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// ringSize is the shard ring's capacity: four times the default, so the
// bursts that pile up while an audit parks the generator, plus a host
// stall of a few hundred milliseconds, fit in the ring instead of being
// refused (each refusal would count as a failed operation).
const ringSize = 16384

// deployment is one filtering service with every victim attached to its
// one-shard shared engine.
type deployment struct {
	d       *vif.Deployment
	eng     *vif.Engine
	sess    []*vif.Session
	service *attest.Service
}

// setup builds the deployment from nothing through the public facade: the
// attestation service and RPKI registry, the shared engine, then for each
// victim the RPKI check, fleet placement, attestation and rule
// installation (RequestFiltering) and the attach (StartEngine). initial
// holds each victim's rules, converted before the clock starts.
func setup(w *workload, initial [][]rules.Rule, deliver func(vif.Descriptor), tel *vif.Telemetry) (*deployment, time.Duration, error) {
	start := time.Now()
	service, err := attest.NewService()
	if err != nil {
		return nil, 0, err
	}
	registry := rpki.NewRegistry()
	for v := 0; v < w.spec.victims; v++ {
		roa := rpki.ROA{Prefix: rules.Prefix{Addr: victimPrefix(v), Len: 16}, ASN: victimASN(v), MaxLength: 32}
		if err := registry.Add(roa); err != nil {
			return nil, 0, err
		}
	}
	d, err := vif.NewDeployment(vif.DeploymentConfig{Name: "bench-ix", MaxRulesPerEnclave: w.maxRules}, service, registry)
	if err != nil {
		return nil, 0, err
	}
	eng, err := d.SharedEngine(vif.SharedEngineConfig{Shards: 1, RingSize: ringSize, Telemetry: tel})
	if err != nil {
		return nil, 0, err
	}
	dep := &deployment{d: d, eng: eng, service: service}
	for v := 0; v < w.spec.victims; v++ {
		set, err := vif.NewRuleSet(initial[v], true)
		if err != nil {
			dep.teardown()
			return nil, 0, err
		}
		s, err := vif.RequestFiltering(victimASN(v), d, set)
		if err != nil {
			dep.teardown()
			return nil, 0, fmt.Errorf("victim %d: request filtering: %w", v, err)
		}
		dep.sess = append(dep.sess, s)
		if _, err := s.StartEngine(vif.EngineConfig{Deliver: deliver}); err != nil {
			dep.teardown()
			return nil, 0, fmt.Errorf("victim %d: start engine: %w", v, err)
		}
	}
	return dep, time.Since(start), nil
}

func (dep *deployment) teardown() {
	for _, s := range dep.sess {
		s.StopEngine()
	}
	dep.d.StopSharedEngine()
}

// epcBytes sums the enclave memory the EPC meter charges over every
// victim's fleet.
func (dep *deployment) epcBytes() int {
	total := 0
	for _, s := range dep.sess {
		ns, _ := s.Namespace()
		for _, f := range dep.eng.NamespaceFilters(ns) {
			total += f.Enclave().MemoryUsed()
		}
	}
	return total
}

// recorder is the victims' capture path: the engine's Deliver sink marks
// each delivered packet (its index rides in Descriptor.Ref) and, in the
// paced phase, stamps the time its burst's latest packet arrived. It runs
// on the one shard worker; readers look only after Engine.WaitDrained,
// whose atomic counters order the worker's writes before them.
type recorder struct {
	delivered bitmap
	dups      uint64
	epoch     time.Time
	// pacedBase is the paced phase's first packet index (max until then);
	// lastDel[k] is when paced burst k's last allowed packet was delivered.
	pacedBase atomic.Uint64
	lastDel   []int64
}

// newRecorder leaves the delivered bitmap to the caller, which allocates
// it once the set-ups that precede the traffic are done.
func newRecorder(epoch time.Time) *recorder {
	r := &recorder{epoch: epoch}
	r.pacedBase.Store(^uint64(0))
	return r
}

func (r *recorder) deliver(d vif.Descriptor) {
	i := uint64(d.Ref)
	if r.delivered.set(i) {
		r.dups++
	}
	if base := r.pacedBase.Load(); i >= base {
		if k := (i - base) / burstLen; k < uint64(len(r.lastDel)) {
			r.lastDel[k] = int64(time.Since(r.epoch))
		}
	}
}
