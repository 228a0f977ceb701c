package main

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/innetworkfiltering/vif/internal/packet"
)

// bruteDecide decides a tuple by a different route than decide: each
// rule's prefixes become address ranges, the proto test is spelled out,
// and the highest-priority covering rule is found by collecting every
// matching index first.
func bruteDecide(rs []orule, t packet.FiveTuple) bool {
	in := func(ip, addr, mask uint32) bool {
		lo := uint64(addr)
		hi := lo + uint64(^mask) // inclusive
		return uint64(ip) >= lo && uint64(ip) <= hi
	}
	var hits []int
	for i, r := range rs {
		protoOK := r.proto == 0 || r.proto == t.Proto
		if protoOK && in(t.SrcIP, r.srcAddr, r.srcMask) && in(t.DstIP, r.dstAddr, r.dstMask) {
			hits = append(hits, i)
		}
	}
	if len(hits) == 0 {
		return true
	}
	first := hits[0]
	for _, h := range hits {
		if h < first {
			first = h
		}
	}
	return rs[first].allow
}

func maskOf(l int) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - l)
}

// TestDecideMatchesBruteForce runs the oracle against the brute-force
// decision on small random rule lists that mix allow and drop rules,
// prefix lengths and protocols, with tuples drawn near the rules.
func TestDecideMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	protos := []packet.Protocol{0, packet.ProtoUDP, packet.ProtoTCP}
	for trial := 0; trial < 300; trial++ {
		var rs []orule
		for k := 0; k < 1+rng.IntN(12); k++ {
			sl, dl := rng.IntN(33), rng.IntN(33)
			base := uint32(10)<<24 | rng.Uint32()&0x00ffffff
			rs = append(rs, orule{
				id:      uint32(k + 1),
				srcAddr: base & maskOf(sl), srcMask: maskOf(sl),
				dstAddr: (base ^ 0x00550000) & maskOf(dl), dstMask: maskOf(dl),
				proto: protos[rng.IntN(3)],
				allow: rng.IntN(3) == 0,
			})
		}
		for k := 0; k < 200; k++ {
			r := rs[rng.IntN(len(rs))]
			tp := packet.FiveTuple{
				SrcIP:   r.srcAddr | rng.Uint32()&^r.srcMask,
				DstIP:   r.dstAddr | rng.Uint32()&^r.dstMask,
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
				Proto: protos[1+rng.IntN(2)],
			}
			if rng.IntN(4) == 0 {
				tp.SrcIP ^= 1 << rng.IntN(32)
			}
			if got, want := decide(rs, tp), bruteDecide(rs, tp); got != want {
				t.Fatalf("trial %d: decide(%v) = %v, brute force %v; rules %+v", trial, tp, got, want, rs)
			}
		}
	}
}

// TestCheckVersionWindows replays a small run with deltas through check:
// a delivery pattern drawn from any rule version each packet could have
// met passes, and flipping the delivery of a packet whose verdict no
// delta touches is caught.
func TestCheckVersionWindows(t *testing.T) {
	s := spec{name: "small", victims: 2, rules: 200, trainLen: 4, botPct: 70}
	w := newWorkload(s, 7)
	const n = 64 * 80
	var recs []deltaRec
	for k := 0; k < 6; k++ {
		d := w.nextDelta(k % 2)
		p := uint64(k*800 + 100)
		recs = append(recs, deltaRec{delta: d, pStart: p, iEnd: p + 150})
	}
	// Brute force: the rule lists each packet may have met, from the
	// delta records, with the list rebuilt from scratch per packet.
	rng := rand.New(rand.NewPCG(3, 4))
	delivered := make(bitmap, n/64)
	determinate := []uint64{}
	for i := uint64(0); i < n; i++ {
		v := w.victimOf(i)
		cur := w.victims[v].initial
		var lists [][]orule
		for _, r := range recs {
			if r.victim != v {
				continue
			}
			if r.iEnd <= i {
				cur = applyDelta(cur, r.delta)
				continue
			}
			if r.pStart <= i {
				if lists == nil {
					lists = append(lists, cur)
				}
				cur = applyDelta(cur, r.delta)
				lists = append(lists, cur)
			}
		}
		if lists == nil {
			lists = [][]orule{cur}
		}
		verdicts := map[bool]bool{}
		for _, l := range lists {
			verdicts[bruteDecide(l, w.packet(i))] = true
		}
		pick := bruteDecide(lists[rng.IntN(len(lists))], w.packet(i))
		if pick {
			delivered.set(i)
		}
		if len(verdicts) == 1 {
			determinate = append(determinate, i)
		}
	}
	c := w.check(n, delivered, nil, recs)
	if len(c.errors) != 0 {
		t.Fatalf("consistent deliveries flagged: %v", c.errors)
	}
	if c.ambiguous == 0 {
		t.Fatal("no packet fell in a delta window: the test checks nothing")
	}
	for _, i := range []uint64{determinate[0], determinate[len(determinate)/2], determinate[len(determinate)-1]} {
		flipped := append(bitmap(nil), delivered...)
		if flipped.get(i) {
			flipped[i>>6] &^= 1 << (i & 63)
		} else {
			flipped.set(i)
		}
		if c := w.check(n, flipped, nil, recs); c.mismatches != 1 {
			t.Errorf("flipping packet %d: %d mismatches, want 1", i, c.mismatches)
		}
	}
	// A refused packet must not be delivered.
	i := determinate[0]
	if !delivered.get(i) {
		delivered.set(i)
	}
	if c := w.check(n, delivered, []uint64{i}, recs); c.mismatches != 1 {
		t.Errorf("refused-but-delivered packet: %d mismatches, want 1", c.mismatches)
	}
}

// TestSameSeedSameInputs checks that rules, traffic and the delta
// sequence are a pure function of the seed, and that seeds differ.
func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		a, b, c := newWorkload(s, 5), newWorkload(s, 5), newWorkload(s, 6)
		for v := range a.victims {
			if !reflect.DeepEqual(a.victims[v].initial, b.victims[v].initial) {
				t.Fatalf("%s: victim %d rules differ for one seed", s.name, v)
			}
		}
		if reflect.DeepEqual(a.victims[0].initial, c.victims[0].initial) {
			t.Fatalf("%s: seeds 5 and 6 give the same rules", s.name)
		}
		same := true
		for i := uint64(0); i < 5000; i++ {
			if a.packet(i) != b.packet(i) {
				t.Fatalf("%s: packet %d differs for one seed", s.name, i)
			}
			if a.packet(i) != c.packet(i) {
				same = false
			}
		}
		if same {
			t.Fatalf("%s: seeds 5 and 6 give the same traffic", s.name)
		}
		for k := 0; k < 5; k++ {
			v := k % s.victims
			if da, db := a.nextDelta(v), b.nextDelta(v); !reflect.DeepEqual(da, db) {
				t.Fatalf("%s: delta %d differs for one seed", s.name, k)
			}
		}
	}
}

// TestWorkloadShape checks the make-up the README states: the share of
// packets the initial rules drop, and one tuple per train.
func TestWorkloadShape(t *testing.T) {
	for _, s := range specs {
		w := newWorkload(s, 9)
		const n = 64 * 2000
		drops, runs := 0, 0
		for i := uint64(0); i < n; i++ {
			tp := w.packet(i)
			if !decide(w.victims[w.victimOf(i)].initial, tp) {
				drops++
			}
			if i%64 == 0 || tp != w.packet(i-1) {
				runs++
			}
		}
		share := float64(drops) / n
		if want := float64(s.botPct) / 100; share < want-0.03 || share > want+0.03 {
			t.Errorf("%s: %.3f of packets dropped, want about %.2f", s.name, share, want)
		}
		if got, want := float64(runs)/n, 1/float64(s.trainLen); got < want*0.95 || got > want*1.05 {
			t.Errorf("%s: %.4f tuple runs per packet, want %.4f", s.name, got, want)
		}
	}
}
