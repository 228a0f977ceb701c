package main

import (
	"fmt"
	"math/bits"

	"github.com/innetworkfiltering/vif/internal/packet"
)

// decide is the oracle: a plain first-match scan over the rule list, with
// VIF's default of allowing traffic no rule names. It shares no code with
// the program's matchers (classify, trie, lb, rules.Set.Match).
func decide(rs []orule, t packet.FiveTuple) (allow bool) {
	for i := range rs {
		r := &rs[i]
		if t.SrcIP&r.srcMask == r.srcAddr && t.DstIP&r.dstMask == r.dstAddr &&
			(r.proto == 0 || r.proto == t.Proto) {
			return r.allow
		}
	}
	return true
}

// deltaRec is one applied delta and the window of packets whose verdict it
// may have changed. Packets below pStart were processed before the delta
// started, so they saw the old rules; packets at or above iEnd were
// enqueued after it returned, so they saw the new ones. Both bounds are
// read conservatively (pStart before the call, iEnd after it).
type deltaRec struct {
	delta
	pStart, iEnd uint64
}

// bitmap records which packet indices the engine delivered.
type bitmap []uint64

func (b bitmap) get(i uint64) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// set marks i and reports whether it was already marked.
func (b bitmap) set(i uint64) bool {
	w, m := &b[i>>6], uint64(1)<<(i&63)
	dup := *w&m != 0
	*w |= m
	return dup
}

func (b bitmap) count(n uint64) uint64 {
	var c uint64
	for k := uint64(0); k < n>>6; k++ {
		c += uint64(bits.OnesCount64(b[k]))
	}
	for i := n &^ 63; i < n; i++ {
		if b.get(i) {
			c++
		}
	}
	return c
}

// verdictCheck is the outcome of replaying every generated packet through
// the oracle.
type verdictCheck struct {
	packets, allowed, ambiguous uint64
	// perVictim counts accepted packets by victim.
	perVictim []uint64
	// mismatches counts every disagreement; errors keeps the first few.
	mismatches uint64
	errors     []string
}

func (c *verdictCheck) fail(format string, args ...any) {
	c.mismatches++
	if len(c.errors) < 10 {
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
}

// check decides packets [0, n) under every rule version each could have
// met and compares with what the engine delivered. refused lists indices
// the engine refused (ascending); they must not be delivered.
func (w *workload) check(n uint64, delivered bitmap, refused []uint64, deltas []deltaRec) verdictCheck {
	c := verdictCheck{perVictim: make([]uint64, w.spec.victims)}
	type vstate struct {
		recs []deltaRec
		// lo deltas certainly applied to the current packet, hi possibly.
		lo, hi int
		// vers[k] is the rule list after base+k deltas.
		vers [][]orule
		base int
	}
	vss := make([]vstate, w.spec.victims)
	for v := range vss {
		vss[v].vers = [][]orule{w.victims[v].initial}
	}
	for _, d := range deltas {
		vss[d.victim].recs = append(vss[d.victim].recs, d)
	}
	var (
		lastT      packet.FiveTuple
		lastV      = -1
		lastLo     int
		lastHi     int
		lastAllow  bool
		lastDrop   bool
		refusedIdx int
	)
	for i := uint64(0); i < n; i++ {
		v := w.victimOf(i)
		vs := &vss[v]
		for vs.lo < len(vs.recs) && vs.recs[vs.lo].iEnd <= i {
			vs.lo++
		}
		for vs.hi < len(vs.recs) && vs.recs[vs.hi].pStart <= i {
			vs.hi++
		}
		lo, hi := vs.lo, vs.hi
		for vs.base+len(vs.vers)-1 < hi {
			top := vs.vers[len(vs.vers)-1]
			vs.vers = append(vs.vers, applyDelta(top, vs.recs[vs.base+len(vs.vers)-1].delta))
		}
		for vs.base < lo {
			vs.vers = vs.vers[1:]
			vs.base++
		}
		t := w.packet(i)
		mayAllow, mayDrop := lastAllow, lastDrop
		if t != lastT || v != lastV || lo != lastLo || hi != lastHi {
			mayAllow, mayDrop = false, false
			for g := lo; g <= hi; g++ {
				if decide(vs.vers[g-vs.base], t) {
					mayAllow = true
				} else {
					mayDrop = true
				}
			}
			lastT, lastV, lastLo, lastHi, lastAllow, lastDrop = t, v, lo, hi, mayAllow, mayDrop
		}
		got := delivered.get(i)
		if refusedIdx < len(refused) && refused[refusedIdx] == i {
			refusedIdx++
			if got {
				c.fail("packet %d was refused but delivered", i)
			}
			continue
		}
		c.packets++
		c.perVictim[v]++
		if mayAllow && mayDrop {
			c.ambiguous++
		}
		if got {
			c.allowed++
			if !mayAllow {
				c.fail("packet %d (%v, victim %d) delivered but the oracle drops it", i, t, v)
			}
		} else if !mayDrop {
			c.fail("packet %d (%v, victim %d) allowed by the oracle but not delivered", i, t, v)
		}
	}
	return c
}
