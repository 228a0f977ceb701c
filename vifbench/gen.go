package main

import (
	"math/bits"
	"math/rand/v2"
	"time"

	"github.com/innetworkfiltering/vif"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// burstLen is the producer's burst size: every burst carries exactly this
// many packets of one victim, so packet i belongs to burst i/burstLen.
const burstLen = 64

// spec fixes one workload's make-up. Everything a run generates — rules,
// traffic, deltas — is a pure function of the spec and the seed.
type spec struct {
	name string
	// victims attach to the one shared engine; rules is each victim's
	// initial rule count.
	victims, rules int
	// maxRules is the deployment's per-enclave rule budget.
	maxRules int
	// trainLen is how many consecutive packets share a five-tuple (1 means
	// a new tuple on every packet). It divides burstLen.
	trainLen int
	// botPct is the percentage of trains whose source is a bot block the
	// initial rules drop; the rest come from legitimate blocks.
	botPct uint64
	// legitTCP sends legitimate trains as TCP (bots are always UDP).
	legitTCP  bool
	frameSize uint16
	// pacedPps is the open-loop offered rate, below the workload's
	// saturation rate at the commit that defined the benchmark.
	pacedPps float64
	// deltaPeriod spaces the deltas of the paced phase's control window
	// (one starts every period, or as soon as the previous one returns if
	// it ran longer); auditEvery deltas are followed by one audit.
	deltaPeriod time.Duration
	auditEvery  int
}

var specs = []spec{
	{
		name: "spoof-flood", victims: 1, rules: 3000, maxRules: 3200,
		trainLen: 1, botPct: 80, frameSize: 64,
		pacedPps: 12000, deltaPeriod: 40 * time.Millisecond, auditEvery: 2,
	},
	{
		name: "tenant-trains", victims: 16, rules: 500, maxRules: 3000,
		trainLen: 16, botPct: 10, legitTCP: true, frameSize: 512,
		pacedPps: 50000, deltaPeriod: 40 * time.Millisecond, auditEvery: 1,
	},
	{
		name: "churn-audit", victims: 1, rules: 10000, maxRules: 12000,
		trainLen: 1, botPct: 80, frameSize: 64,
		pacedPps: 3000, deltaPeriod: 50 * time.Millisecond, auditEvery: 2,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// orule is the benchmark's own rule form, matched by the oracle without
// any program code: a source and destination prefix and an optional
// protocol. The workloads use drop rules only; allow rules let the
// oracle's tests exercise first-match order.
type orule struct {
	id               uint32
	srcAddr, srcMask uint32
	dstAddr, dstMask uint32
	proto            packet.Protocol // 0 matches any protocol
	allow            bool
}

func (r orule) rule() rules.Rule {
	rr := rules.Rule{
		ID:    r.id,
		Src:   rules.Prefix{Addr: r.srcAddr, Len: uint8(bits.OnesCount32(r.srcMask))},
		Dst:   rules.Prefix{Addr: r.dstAddr, Len: uint8(bits.OnesCount32(r.dstMask))},
		Proto: r.proto,
	}
	if r.allow {
		rr.PAllow = 1
	}
	return rr
}

// victimPrefix is victim v's /16: 100.(64+v).0.0.
func victimPrefix(v int) uint32 { return 100<<24 | uint32(64+v)<<16 }

func victimASN(v int) vif.ASN { return vif.ASN(64512 + v) }

// victimState is one victim's generated inputs plus the evolving rule list
// the deltas walk through.
type victimState struct {
	bot, legit []uint32 // /24 source blocks, as host-order addresses
	initial    []orule
	// cur is the rule list after the deltas generated so far, in the
	// program's first-match order (survivors, then adds appended).
	cur    []orule
	ruled  map[uint32]bool // blocks cur covers
	nextID uint32
	rng    *rand.Rand
}

// workload is a spec instantiated for one seed.
type workload struct {
	spec
	seed    uint64
	victims []*victimState
}

const (
	streamPools   = 0x706f6f6c
	streamTraffic = 0x74726166
	streamDeltas  = 0x64656c74
)

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newWorkload(s spec, seed uint64) *workload {
	w := &workload{spec: s, seed: seed}
	for v := 0; v < s.victims; v++ {
		rng := rand.New(rand.NewPCG(seed^streamPools, uint64(v)))
		used := make(map[uint32]bool)
		block := func() uint32 {
			for {
				b := rng.Uint32() &^ 0xff
				// Keep sources out of the victims' own space and out of
				// 0/8 and the multicast/reserved range.
				if b>>24 == 0 || b>>24 >= 224 || b>>24 == 100 || used[b] {
					continue
				}
				used[b] = true
				return b
			}
		}
		vs := &victimState{
			ruled: make(map[uint32]bool),
			rng:   rand.New(rand.NewPCG(seed^streamDeltas, uint64(v))),
		}
		for k := 0; k < s.rules; k++ {
			vs.bot = append(vs.bot, block())
		}
		for k := 0; k < s.rules; k++ {
			vs.legit = append(vs.legit, block())
		}
		for _, b := range vs.bot {
			vs.nextID++
			vs.initial = append(vs.initial, w.ruleFor(v, vs.nextID, b))
			vs.ruled[b] = true
		}
		vs.cur = append([]orule(nil), vs.initial...)
		w.victims = append(w.victims, vs)
	}
	return w
}

// ruleFor drops the source block toward victim v: UDP only for even IDs,
// any protocol for odd ones, so the protocol attribute carries both a
// wildcard and a value.
func (w *workload) ruleFor(v int, id, block uint32) orule {
	r := orule{
		id: id, srcAddr: block, srcMask: 0xffffff00,
		dstAddr: victimPrefix(v), dstMask: 0xffff0000,
	}
	if id%2 == 0 {
		r.proto = packet.ProtoUDP
	}
	return r
}

// victimOf returns the victim packet i is addressed to.
func (w *workload) victimOf(i uint64) int { return int(i/burstLen) % w.spec.victims }

// packet returns packet i's five-tuple: trains of trainLen packets share
// one tuple drawn from the train's hash.
func (w *workload) packet(i uint64) packet.FiveTuple {
	v := w.victimOf(i)
	vs := w.victims[v]
	r := mix64(mix64(w.seed^streamTraffic) + i/uint64(w.trainLen))
	t := packet.FiveTuple{
		DstIP:   victimPrefix(v) | uint32(r>>24)&0xffff,
		SrcPort: uint16(1024 + (r>>48)%60000),
	}
	host := uint32(r>>40) & 0xff
	if r%100 < w.botPct {
		t.SrcIP = vs.bot[(r>>8)%uint64(len(vs.bot))] | host
		t.Proto = packet.ProtoUDP
		t.DstPort = 53
		return t
	}
	t.SrcIP = vs.legit[(r>>8)%uint64(len(vs.legit))] | host
	t.Proto = packet.ProtoUDP
	if w.legitTCP {
		t.Proto = packet.ProtoTCP
	}
	t.DstPort = 443
	return t
}

// fill writes burst b's descriptors into buf (len burstLen).
func (w *workload) fill(b uint64, buf []vif.Descriptor) {
	for k := range buf {
		i := b*burstLen + uint64(k)
		buf[k] = vif.Descriptor{Tuple: w.packet(i), Size: w.frameSize, Ref: packet.Ref(i)}
	}
}

// delta is one rule change of one victim.
type delta struct {
	victim  int
	adds    []orule
	removes []uint32
}

// nextDelta draws victim v's next 1% change: it removes rules chosen at
// random from the current list and adds rules over blocks the traffic
// uses that no current rule covers (legitimate blocks, or bot blocks an
// earlier delta freed), so verdicts change both ways.
func (w *workload) nextDelta(v int) delta {
	vs := w.victims[v]
	k := w.rules / 100
	d := delta{victim: v}
	gone := make(map[uint32]bool, k)
	for len(d.removes) < k {
		r := vs.cur[vs.rng.IntN(len(vs.cur))]
		if gone[r.id] {
			continue
		}
		gone[r.id] = true
		d.removes = append(d.removes, r.id)
		delete(vs.ruled, r.srcAddr)
	}
	for len(d.adds) < k {
		var b uint32
		if vs.rng.IntN(2) == 0 {
			b = vs.legit[vs.rng.IntN(len(vs.legit))]
		} else {
			b = vs.bot[vs.rng.IntN(len(vs.bot))]
		}
		if vs.ruled[b] {
			continue
		}
		vs.ruled[b] = true
		vs.nextID++
		d.adds = append(d.adds, w.ruleFor(v, vs.nextID, b))
	}
	vs.cur = applyDelta(vs.cur, d)
	return d
}

// applyDelta returns the successor list: survivors in order, then adds.
func applyDelta(cur []orule, d delta) []orule {
	gone := make(map[uint32]bool, len(d.removes))
	for _, id := range d.removes {
		gone[id] = true
	}
	out := make([]orule, 0, len(cur)-len(d.removes)+len(d.adds))
	for _, r := range cur {
		if !gone[r.id] {
			out = append(out, r)
		}
	}
	return append(out, d.adds...)
}

func toRules(rs []orule) []rules.Rule {
	out := make([]rules.Rule, len(rs))
	for i, r := range rs {
		out[i] = r.rule()
	}
	return out
}

func removeRules(ids []uint32) []rules.Rule {
	out := make([]rules.Rule, len(ids))
	for i, id := range ids {
		out[i] = rules.Rule{ID: id}
	}
	return out
}
