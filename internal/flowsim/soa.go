package flowsim

import (
	"fmt"
	"math"
	"slices"

	"flattree/internal/telemetry"
)

// This file is the struct-of-arrays allocator core. The seed allocator
// (reference_test.go) rebuilt the subflow table and every per-link index on
// each call and re-scanned all of caps per progressive-filling round; at
// 10M flows those rebuilds dominate. The SoA core keeps connections in
// dense parallel arrays indexed by slot, subflow link lists in one flat
// arena, and per-link membership incrementally maintained across calls,
// so one allocation touches only the subflows that run and the links
// they load.
//
// Determinism contract: the core reproduces the reference allocator
// bit-for-bit. Every float operates in the reference's order — per-link
// weight sums accumulate over members in ascending (connection, subflow)
// order, the bottleneck is the first strict minimum of remaining/weight
// in ascending link order, drains are per-link independent, and freezes
// walk saturated links ascending with each subflow's own link list in
// path order.
//
// Rounds are serial: each is one pass over the loaded links, and a
// fan-out of that pass over a worker pool measured slower than the scan
// on two vCPUs (README, "Simulator core").

// member is one subflow's occurrence on a link, keyed for the reference
// iteration order: ascending external connection ID, then subflow index
// (which follows path order within a connection).
type member struct {
	id int32 // external connection ID
	sf int32 // subflow index into the sf* arrays
}

// allocState is the allocator's persistent state. Connections occupy
// integer slots (dense, reusable via a caller-held free list); each slot
// owns a contiguous range of subflows, and each subflow a contiguous
// range of the link arena. Per-call scratch (epoch marks, loaded-link
// and saturated-link lists) is pooled here so steady-state allocation
// does not allocate.
type allocState struct {
	caps []float64 // aliased from the caller; events mutate it in place

	// Per connection slot: owned subflow range (cnt live, cap reserved)
	// and owned arena range.
	subOff, subCnt, subCap []int32
	arenaOff, arenaCap     []int32

	// Per subflow, parallel arrays.
	sfW       []float64 // fair-share weight (connection weight / paths)
	sfRate    []float64 // allocated rate, valid after allocate for marked subflows
	sfMark    []uint64  // epoch: participates in the current allocate call
	sfFrozen  []uint64  // epoch: frozen (rate final) in the current call
	sfLinkOff []int32
	sfLinkCnt []int32

	// arena holds every subflow's link list back to back, preserving
	// path order (duplicates included — the reference decrements once
	// per occurrence).
	arena []int32

	// Per link: membership sorted by (id, sf) with occurrence order
	// preserved among equals, plus the round state the reference kept in
	// per-call slices.
	members    [][]member
	inMem      []bool
	memLinks   []int32 // links with (possibly stale) membership, sorted when !memDirty
	memDirty   bool
	linkWeight []float64
	linkCount  []int32
	remaining  []float64

	// Pooled round scratch.
	roundLoaded []int32
	roundSat    []int32
	epoch       uint64

	// Abandoned-range accounting drives compaction in streaming runs.
	sfWaste, arenaWaste int

	allocs *telemetry.Counter
	rounds *telemetry.Counter
}

// newAllocState builds an empty core over the given capacities (aliased,
// not copied — topology events mutate the slice in place) with room for
// nSlots connection slots.
func newAllocState(caps []float64, nSlots int) *allocState {
	return &allocState{
		caps:       caps,
		subOff:     make([]int32, nSlots),
		subCnt:     make([]int32, nSlots),
		subCap:     make([]int32, nSlots),
		arenaOff:   make([]int32, nSlots),
		arenaCap:   make([]int32, nSlots),
		members:    make([][]member, len(caps)),
		inMem:      make([]bool, len(caps)),
		memLinks:   make([]int32, 0, 64),
		linkWeight: make([]float64, len(caps)),
		linkCount:  make([]int32, len(caps)),
		remaining:  make([]float64, len(caps)),
		allocs:     telemetry.C("flowsim_allocations_total"),
		rounds:     telemetry.C("flowsim_alloc_rounds_total"),
	}
}

// growSlots extends the per-slot arrays to hold at least n slots.
func (a *allocState) growSlots(n int) {
	for len(a.subOff) < n {
		a.subOff = append(a.subOff, 0)
		a.subCnt = append(a.subCnt, 0)
		a.subCap = append(a.subCap, 0)
		a.arenaOff = append(a.arenaOff, 0)
		a.arenaCap = append(a.arenaCap, 0)
	}
}

func memLess(x, y member) bool {
	return x.id < y.id || (x.id == y.id && x.sf < y.sf)
}

// insertMember adds one link occurrence, keeping members[l] sorted by
// (id, sf). Upper-bound insertion keeps equal keys (duplicate links in
// one path) in occurrence order, matching the reference's per-path
// decrement order.
//
//flatvet:hotpath runs once per link occurrence of every admitted connection
func (a *allocState) insertMember(l int32, m member) {
	if !a.inMem[l] {
		a.inMem[l] = true
		a.memLinks = append(a.memLinks, l)
		a.memDirty = true
	}
	mem := a.members[l]
	// Admissions overwhelmingly arrive in ascending ID order
	// (StaticRates always, streaming runs nearly so), making the
	// upper-bound position the end of the list.
	if n := len(mem); n == 0 || !memLess(m, mem[n-1]) {
		a.members[l] = append(mem, m)
		return
	}
	lo, hi := 0, len(mem)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if memLess(m, mem[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	mem = append(mem, member{})
	copy(mem[lo+1:], mem[lo:])
	mem[lo] = m
	a.members[l] = mem
}

// removeMember deletes the first occurrence equal to (id, sf) from l's
// membership. The link stays on memLinks until the next allocate sweeps
// it out.
//
//flatvet:hotpath runs once per link occurrence of every retired connection
func (a *allocState) removeMember(l, id, sf int32) {
	mem := a.members[l]
	m := member{id: id, sf: sf}
	lo, hi := 0, len(mem)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if memLess(mem[mid], m) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(mem[lo:], mem[lo+1:])
	a.members[l] = mem[:len(mem)-1]
}

// admit installs connection id's path set into slot. The slot must be
// empty (fresh, or retired first). Weight follows ConnSpec: the total is
// split evenly across paths, zero defaults to 1. Empty path sets are
// legal (a disconnected connection holds no subflows).
func (a *allocState) admit(slot, id int, weight float64, paths [][]int) error {
	if weight == 0 {
		weight = 1
	}
	np := int32(len(paths))
	if np == 0 {
		a.subCnt[slot] = 0
		return nil
	}
	per := weight / float64(np)
	if !(per > 0) {
		return fmt.Errorf("flowsim: connection %d has subflow weight %v", id, per)
	}
	nl := 0
	for _, p := range paths {
		for _, l := range p {
			if l < 0 || l >= len(a.caps) {
				return fmt.Errorf("flowsim: connection %d references link %d of %d", id, l, len(a.caps))
			}
		}
		nl += len(p)
	}
	off := a.subOff[slot]
	if a.subCap[slot] < np {
		a.sfWaste += int(a.subCap[slot])
		off = int32(len(a.sfW))
		a.subOff[slot] = off
		a.subCap[slot] = np
		// Extend length only — the per-path loop below writes every
		// field of every new subflow, so no zeroing pass is needed.
		n := int(np)
		a.sfW = slices.Grow(a.sfW, n)[:len(a.sfW)+n]
		a.sfRate = slices.Grow(a.sfRate, n)[:len(a.sfRate)+n]
		a.sfMark = slices.Grow(a.sfMark, n)[:len(a.sfMark)+n]
		a.sfFrozen = slices.Grow(a.sfFrozen, n)[:len(a.sfFrozen)+n]
		a.sfLinkOff = slices.Grow(a.sfLinkOff, n)[:len(a.sfLinkOff)+n]
		a.sfLinkCnt = slices.Grow(a.sfLinkCnt, n)[:len(a.sfLinkCnt)+n]
	}
	a.subCnt[slot] = np
	pos := a.arenaOff[slot]
	if a.arenaCap[slot] < int32(nl) {
		a.arenaWaste += int(a.arenaCap[slot])
		pos = int32(len(a.arena))
		a.arenaOff[slot] = pos
		a.arenaCap[slot] = int32(nl)
		a.arena = slices.Grow(a.arena, nl)[:len(a.arena)+nl]
	}
	for pi, p := range paths {
		sf := off + int32(pi)
		a.sfW[sf] = per
		a.sfRate[sf] = 0
		a.sfMark[sf], a.sfFrozen[sf] = 0, 0
		a.sfLinkOff[sf] = pos
		a.sfLinkCnt[sf] = int32(len(p))
		for _, l := range p {
			a.arena[pos] = int32(l)
			pos++
			a.insertMember(int32(l), member{id: int32(id), sf: sf})
		}
	}
	return nil
}

// retire removes connection id's memberships and empties its slot. The
// slot keeps its reserved ranges for reuse by a later admit.
//
//flatvet:hotpath streaming retire path, once per finished flow in 10M-flow runs
func (a *allocState) retire(slot, id int) {
	off, cnt := a.subOff[slot], a.subCnt[slot]
	for j := int32(0); j < cnt; j++ {
		sf := off + j
		lo := a.sfLinkOff[sf]
		for _, l := range a.arena[lo : lo+a.sfLinkCnt[sf]] {
			a.removeMember(l, int32(id), sf)
		}
	}
	a.subCnt[slot] = 0
}

// setPaths replaces connection id's path set in place (a reroute event).
func (a *allocState) setPaths(slot, id int, weight float64, paths [][]int) error {
	a.retire(slot, id)
	return a.admit(slot, id, weight, paths)
}

// allocate computes weighted max-min fair rates for the given connection
// slots by progressive filling. Slots must be sorted by ascending
// external ID — the order that fixes every float accumulation. Rates are
// read back per slot with rate(); per-subflow values stay in sfRate
// (loopback subflows excluded — they are the caller's localRate).
//
//flatvet:hotpath the allocation round; steady state must not allocate
func (a *allocState) allocate(run []int32) {
	a.epoch++
	ep := a.epoch
	nActive := 0
	for _, slot := range run {
		off, cnt := a.subOff[slot], a.subCnt[slot]
		for j := int32(0); j < cnt; j++ {
			sf := off + j
			if a.sfLinkCnt[sf] == 0 {
				continue // loopback: unconstrained by the fabric
			}
			a.sfMark[sf] = ep
			a.sfRate[sf] = 0
			nActive++
		}
	}

	// Build the round state for loaded links only. memLinks is swept in
	// the same pass: links whose membership emptied since the last call
	// drop out here.
	if a.memDirty {
		slices.Sort(a.memLinks)
		a.memDirty = false
	}
	loaded := a.roundLoaded[:0]
	kept := a.memLinks[:0]
	for _, l := range a.memLinks {
		mem := a.members[l]
		if len(mem) == 0 {
			a.inMem[l] = false
			continue
		}
		kept = append(kept, l)
		w := 0.0
		cnt := int32(0)
		for i := range mem {
			if a.sfMark[mem[i].sf] == ep {
				w += a.sfW[mem[i].sf]
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		a.linkWeight[l] = w
		a.linkCount[l] = cnt
		a.remaining[l] = a.caps[l]
		loaded = append(loaded, l)
	}
	a.memLinks = kept

	level := 0.0 // current water level (rate per unit weight)
	rounds := int64(0)
	for nActive > 0 {
		rounds++
		// Find the link that saturates next: smallest additional level
		// Δ = remaining[l] / linkWeight[l], first strict minimum in
		// ascending link order — loaded is sorted, and links whose load
		// froze are skipped by count, so this scan equals the
		// reference's walk over all of caps. The scan compacts dead links
		// (count zero) out of loaded as it goes, so later rounds touch
		// only links still filling.
		bottleneck := int32(-1)
		best := math.Inf(1)
		kept := loaded[:0]
		for _, l := range loaded {
			if a.linkCount[l] == 0 {
				continue
			}
			kept = append(kept, l)
			if d := a.remaining[l] / a.linkWeight[l]; d < best {
				best = d
				bottleneck = l
			}
		}
		loaded = kept
		if bottleneck < 0 {
			break
		}
		level += best
		// Drain every loaded link by the growth of this round, collecting
		// the links that just saturated (remaining at or under the 1e-12
		// threshold) in ascending link order, since loaded is sorted. The
		// search above compacted loaded, so every entry has live members.
		sat := a.roundSat[:0]
		for _, l := range loaded {
			a.remaining[l] -= best * a.linkWeight[l]
			if a.remaining[l] < 0 {
				a.remaining[l] = 0
			}
			if a.remaining[l] <= 1e-12 {
				sat = append(sat, l)
			}
		}
		// The bottleneck always freezes, whether or not the residual
		// subtraction left it within the threshold; splice it into its
		// ascending position.
		bi, found := slices.BinarySearch(sat, bottleneck)
		if !found {
			sat = append(sat, 0)
			copy(sat[bi+1:], sat[bi:])
			sat[bi] = bottleneck
		}
		// Freeze subflows crossing the saturated links, ascending link
		// order, members in (connection, subflow) order — exactly the
		// subset of the reference's full sweep that does any work. The
		// count guard re-checks at processing time: an earlier freeze in
		// this round may have emptied a later saturated link.
		frozeAny := false
		for _, l := range sat {
			if a.linkCount[l] == 0 {
				continue
			}
			mem := a.members[l]
			for i := range mem {
				sf := mem[i].sf
				if a.sfMark[sf] != ep || a.sfFrozen[sf] == ep {
					continue
				}
				a.sfFrozen[sf] = ep
				nActive--
				frozeAny = true
				w := a.sfW[sf]
				a.sfRate[sf] = w * level
				lo := a.sfLinkOff[sf]
				for _, sl := range a.arena[lo : lo+a.sfLinkCnt[sf]] {
					a.linkWeight[sl] -= w
					a.linkCount[sl]--
					if a.linkCount[sl] == 0 {
						a.linkWeight[sl] = 0
					}
				}
			}
		}
		a.roundSat = sat[:0]
		if !frozeAny {
			// Defensive: cannot happen (the bottleneck always freezes),
			// but never spin.
			break
		}
	}
	a.roundLoaded = loaded[:0]
	a.allocs.Inc()
	a.rounds.Add(rounds)
}

// rate sums slot's subflow rates in path order — the accumulation order
// of the seed's ConnRates (reference_test.go) — granting loopback
// subflows localRate.
//
//flatvet:hotpath rate readback after every allocation round
func (a *allocState) rate(slot int, localRate float64) float64 {
	off, cnt := a.subOff[slot], a.subCnt[slot]
	r := 0.0
	for j := int32(0); j < cnt; j++ {
		sf := off + j
		if a.sfLinkCnt[sf] == 0 {
			r += localRate
		} else {
			r += a.sfRate[sf]
		}
	}
	return r
}

// maybeCompact rebuilds the arenas when abandoned ranges dominate; ids
// and slots list the live connections in ascending external-ID order.
// Streaming runs call this after retiring connections so memory stays
// bounded by the live set, not the total flow count.
func (a *allocState) maybeCompact(ids []int, slots []int32) {
	if len(a.arena) < 1<<16 {
		return
	}
	if a.arenaWaste*2 < len(a.arena) && a.sfWaste*2 < len(a.sfW) {
		return
	}
	a.compact(ids, slots)
}

// compact rebuilds every dense array from the live connections, ascending
// external ID. Weights and rates are copied, never recomputed, so the
// rebuild cannot perturb a single output bit.
func (a *allocState) compact(ids []int, slots []int32) {
	nSf, nAr := 0, 0
	for _, slot := range slots {
		off, cnt := a.subOff[slot], a.subCnt[slot]
		nSf += int(cnt)
		for j := int32(0); j < cnt; j++ {
			nAr += int(a.sfLinkCnt[off+j])
		}
	}
	newW := make([]float64, 0, nSf)
	newRate := make([]float64, 0, nSf)
	newMark := make([]uint64, nSf)
	newFrozen := make([]uint64, nSf)
	newLinkOff := make([]int32, 0, nSf)
	newLinkCnt := make([]int32, 0, nSf)
	newArena := make([]int32, 0, nAr)
	for l := range a.members {
		a.members[l] = a.members[l][:0]
		a.inMem[l] = false
	}
	a.memLinks = a.memLinks[:0]
	// Snapshot the slot tables: the zeroing below mutates them in place,
	// while the sf* arrays are replaced wholesale (old backing stays
	// readable through the old* aliases).
	oldOff := append([]int32(nil), a.subOff...)
	oldCnt := append([]int32(nil), a.subCnt...)
	oldLinkOff, oldLinkCnt := a.sfLinkOff, a.sfLinkCnt
	oldW, oldRate, oldArena := a.sfW, a.sfRate, a.arena
	a.sfLinkOff, a.sfLinkCnt = newLinkOff, newLinkCnt
	for i := range a.subCap {
		a.subOff[i], a.subCnt[i], a.subCap[i] = 0, 0, 0
		a.arenaOff[i], a.arenaCap[i] = 0, 0
	}
	a.sfW, a.sfRate = newW, newRate
	a.arena = newArena
	for si, slot := range slots {
		id := int32(ids[si])
		off, cnt := oldOff[slot], oldCnt[slot]
		a.subOff[slot] = int32(len(a.sfW))
		a.subCnt[slot], a.subCap[slot] = cnt, cnt
		a.arenaOff[slot] = int32(len(a.arena))
		for j := int32(0); j < cnt; j++ {
			sf := off + j
			nsf := int32(len(a.sfW))
			a.sfW = append(a.sfW, oldW[sf])
			a.sfRate = append(a.sfRate, oldRate[sf])
			a.sfLinkOff = append(a.sfLinkOff, int32(len(a.arena)))
			a.sfLinkCnt = append(a.sfLinkCnt, oldLinkCnt[sf])
			lo := oldLinkOff[sf]
			for _, l := range oldArena[lo : lo+oldLinkCnt[sf]] {
				a.arena = append(a.arena, l)
				a.insertMember(l, member{id: id, sf: nsf})
			}
		}
		a.arenaCap[slot] = int32(len(a.arena)) - a.arenaOff[slot]
	}
	a.sfMark, a.sfFrozen = newMark, newFrozen
	a.sfWaste, a.arenaWaste = 0, 0
}

// validateCaps rejects the capacities the seed core silently accepted:
// NaN and negative values propagate NaN or negative rates through the
// allocator and poison every downstream FCT.
func validateCaps(caps []float64) error {
	for l, c := range caps {
		if math.IsNaN(c) || c < 0 {
			return fmt.Errorf("flowsim: link %d has capacity %v (want >= 0)", l, c)
		}
	}
	return nil
}
