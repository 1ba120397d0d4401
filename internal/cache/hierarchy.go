package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lineAddr is a physical address divided by the line size.
type lineAddr uint64

func lineOf(a mem.PhysAddr) lineAddr { return lineAddr(a >> mem.LineShift) }

// MaxWays is the largest associativity a level can hold: its recency word
// packs one 4-bit way number per way into 64 bits.
const MaxWays = 16

// MaxPhysEnd is the end of the highest physical address a level can tag:
// a tag is the line number plus one in 32 bits, so line numbers stay below
// 2^32-1 (256 GiB of physical address space).
const MaxPhysEnd = (1<<32 - 1) * mem.LineSize

// level is one set-associative cache level with exact LRU replacement,
// stored as a struct of arrays so that a 16-way set costs 76 bytes of host
// memory instead of the 384 a 24-byte way record took:
//
//   - tags holds one word per way, set s occupying tags[s*assoc :
//     (s+1)*assoc]: the line number plus one, so zero means invalid;
//     a last, always-zero word is the sentinel hot points at when unset;
//   - rec holds one recency word per set: the set's way numbers, 4 bits
//     each, ordered from the most recently used (low nibble) to the least
//     recently used (nibble assoc-1);
//   - state holds one word per set: bit w is way w's valid flag and bit
//     16+w its dirty flag.
//
// Every hit and every fill moves its way to the front of rec, and nothing
// else reorders it, so once a set is full its LRU nibble is the way whose
// last use is oldest: the same victim as a per-way timestamp with a
// minimum search. Until then the victim is the lowest invalid way, the
// trailing zero of the valid bits. Both choices are O(1).
//
// mru is the tags index of the way of the last hit that needed a set
// scan. hot is mru while that way also is the front of its set, so that a
// hit on it changes nothing; a fill into its set unsets it. Accesses
// repeat lines heavily (eight consecutive words share a line), so most
// hits are on hot and cost one compare, which accessLine makes inline for
// L1 reads before calling probe. A reused or invalidated way fails the
// compare.
type level struct {
	tags  []uint32
	rec   []uint64
	state []uint32
	mru   int
	hot   int
	assoc int
	mask  uint64
	// full is the valid bits of a full set; lruShift is the bit offset of
	// the LRU nibble; recMask covers assoc nibbles.
	full     uint32
	lruShift uint
	recMask  uint64
}

// Nibble masks for the word-parallel search in promote.
const (
	nibbleLow  = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

func newLevel(c LevelConfig) *level {
	n := c.Sets()
	if n == 0 {
		return nil
	}
	l := &level{
		tags:     make([]uint32, n*c.Ways+1),
		hot:      n * c.Ways,
		rec:      make([]uint64, n),
		state:    make([]uint32, n),
		assoc:    c.Ways,
		mask:     uint64(n - 1),
		full:     1<<c.Ways - 1,
		lruShift: uint(4 * (c.Ways - 1)),
		recMask:  1<<(4*uint(c.Ways)) - 1,
	}
	var fresh uint64
	for w := 0; w < c.Ways; w++ {
		fresh |= uint64(w) << (4 * w)
	}
	for s := range l.rec {
		l.rec[s] = fresh
	}
	return l
}

// tagOf is the tags entry of a line held in a level.
func tagOf(a lineAddr) uint32 { return uint32(a) + 1 }

// probe returns the tags index of the way holding a, made the most
// recently used of its set, or -1 when a is absent. Like a hardware way
// predictor it tries l.mru, the way of the last hit that needed a set
// scan, before scanning; a set holding a line twice (the no-L3 fill path
// fills an L2 twice) therefore hits the predicted copy.
func (l *level) probe(a lineAddr) int {
	i := l.mru
	if l.tags[i] != tagOf(a) {
		if i = l.lookup(a); i < 0 {
			return -1
		}
		l.mru = i
	}
	s := uint64(a) & l.mask
	l.rec[s] = promote(l.rec[s], uint64(i)-s*uint64(l.assoc))
	l.hot = i
	return i
}

// lookup scans a's set for it, returning its tags index or -1.
func (l *level) lookup(a lineAddr) int {
	base := int(uint64(a)&l.mask) * l.assoc
	tag := tagOf(a)
	for w, t := range l.tags[base : base+l.assoc] {
		if t == tag {
			return base + w
		}
	}
	return -1
}

// promote moves way w to the front of recency word r. XOR-ing w into every
// nibble zeroes exactly w's nibble; the lowest zero nibble is found with
// the classic borrow trick (a false positive can only sit above a true
// zero, and the lowest flag is taken). A way already in front, the common
// case, returns at once.
func promote(r, w uint64) uint64 {
	if r&0xF == w {
		return r
	}
	x := r ^ w*nibbleLow
	p := uint(bits.TrailingZeros64((x-nibbleLow)&^x&nibbleHigh)) &^ 3
	above := ^uint64(0) << (p & 63) // w's nibble and every later one
	return r&(above<<4) | (r&^above)<<4 | w
}

// setDirty marks way i, which holds a, dirty.
func (l *level) setDirty(a lineAddr, i int) {
	s := uint64(a) & l.mask
	l.state[s] |= 1 << ((16 + uint64(i) - s*uint64(l.assoc)) & 31)
}

// insert fills a into the level, dirty or clean, evicting a victim if the
// set is full. It returns the tags index now holding a plus the evicted
// line and whether an eviction of a valid (possibly dirty) line happened.
func (l *level) insert(a lineAddr, dirty bool) (i int, evicted lineAddr, wasValid, wasDirty bool) {
	s := uint64(a) & l.mask
	base := int(s) * l.assoc
	st, r := l.state[s], l.rec[s]
	if uint(l.hot-base) < uint(l.assoc) {
		l.hot = len(l.tags) - 1
	}
	var w uint
	if valid := st & 0xFFFF; valid != l.full {
		w = uint(bits.TrailingZeros32(^valid)) & 15
		r = promote(r, uint64(w))
	} else {
		w = uint(r>>(l.lruShift&63)) & 15
		r = (r<<4 | uint64(w)) & l.recMask
		evicted, wasValid, wasDirty = lineAddr(l.tags[base+int(w)]-1), true, st>>(16+w)&1 != 0
	}
	st = st&^(1<<(16+w)) | 1<<w
	if dirty {
		st |= 1 << (16 + w)
	}
	i = base + int(w)
	l.tags[i] = tagOf(a)
	l.state[s] = st
	l.rec[s] = r
	return i, evicted, wasValid, wasDirty
}

// invalidate removes a from the level, returning whether it was present
// and dirty. The way keeps its place in the recency word: the next fill of
// the set picks the lowest invalid way and promotes it.
func (l *level) invalidate(a lineAddr) (dirty bool) {
	s := uint64(a) & l.mask
	set := l.tags[int(s)*l.assoc:][:l.assoc]
	for w, t := range set {
		if t == tagOf(a) {
			set[w] = 0
			m := uint32(0x10001) << (w & 15) // the way's valid and dirty bits
			st := l.state[s]
			l.state[s] = st &^ m
			return st&m > 0xFFFF
		}
	}
	return false
}

// flushAll invalidates every line (used by tests and node reset).
func (l *level) flushAll() {
	clear(l.tags)
	clear(l.state)
}

// dirEntry tracks the MESI state of one line across the two nodes. It is
// stored by value inside the directory's flat slot array (dir.go), so it is
// kept small: 4 bytes instead of a heap object per line.
type dirEntry struct {
	holders [2]bool
	// owner is the node holding the line Exclusive or Modified, or -1 when
	// the line is Shared or uncached.
	owner    int8
	modified bool
}

// dirHint is a per-core one-entry cache of the directory slot holding the
// core's most recently accessed line, so repeat hits skip probing. It is
// validated by re-checking the slot's key, which stays correct across
// backward-shift deletions and table growth (a slot holding the right key
// IS the entry — keys are unique).
type dirHint struct {
	ln  lineAddr
	idx int32
	ok  bool
}

// nodeCaches is one node's private hierarchy plus its counters.
type nodeCaches struct {
	l1i, l1d, l2 []*level // indexed by core
	l3           *level   // nil when the machine uses a shared L3
	stats        Stats
	// coreStats splits the private-cache counters by accessing core, the
	// evidence that a multi-core run actually exercised each core.
	coreStats []CoreStats
}

// Hierarchy is the machine-wide memory system timing model.
type Hierarchy struct {
	cfg      Config
	layout   *mem.Layout
	nodes    [2]*nodeCaches
	sharedL3 *level
	// dir is the coherence directory.
	dir dirTable
	// hints are the per-node, per-core last-line directory slot caches.
	hints [2][]dirHint

	// Tap, when set, observes every access before it is simulated. The
	// Figure 8 validation uses it to replay the identical reference stream
	// through the independent gem5-style model.
	Tap func(node mem.NodeID, core int, kind Kind, addr mem.PhysAddr, size int)

	// Tracer, when non-nil, receives coherence and memory-miss events
	// (snoop invalidations, snoop data forwards, accesses that reach
	// memory). The L1-hit fast path performs no tracer check at all; the
	// snoop and miss paths each perform one nil check.
	Tracer trace.Tracer
	// ctxCycle/ctxTid carry the accessing thread's clock and id into the
	// line-level simulation for event timestamps. Set via TraceContext by
	// the Port layer before Access; safe as plain fields because the sim
	// engine serializes all simulated execution on one token.
	ctxCycle int64
	ctxTid   int32
}

// NewHierarchy builds the cache model for the given configuration and
// physical layout. It panics on a configuration Validate rejects; callers
// taking geometry from users (machine.Config) validate first.
func NewHierarchy(cfg Config, layout *mem.Layout) *Hierarchy {
	if err := cfg.Validate(layout); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg, layout: layout, dir: newDirTable()}
	for n := 0; n < 2; n++ {
		nc := &nodeCaches{coreStats: make([]CoreStats, cfg.Nodes[n].Cores)}
		h.hints[n] = make([]dirHint, cfg.Nodes[n].Cores)
		for c := 0; c < cfg.Nodes[n].Cores; c++ {
			nc.l1i = append(nc.l1i, newLevel(cfg.Nodes[n].L1I))
			nc.l1d = append(nc.l1d, newLevel(cfg.Nodes[n].L1D))
			nc.l2 = append(nc.l2, newLevel(cfg.Nodes[n].L2))
		}
		if !cfg.SharedL3 {
			nc.l3 = newLevel(cfg.Nodes[n].L3)
		}
		h.nodes[n] = nc
	}
	if cfg.SharedL3 {
		h.sharedL3 = newLevel(cfg.Nodes[0].L3)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of node n's counters.
func (h *Hierarchy) Stats(n mem.NodeID) Stats { return h.nodes[n].stats }

// CoreStats returns a snapshot of the per-core private-cache counters of
// core c on node n.
func (h *Hierarchy) CoreStats(n mem.NodeID, c int) CoreStats { return h.nodes[n].coreStats[c] }

// ResetStats zeroes all counters without disturbing cache contents.
func (h *Hierarchy) ResetStats() {
	for _, nc := range h.nodes {
		nc.stats = Stats{}
		for i := range nc.coreStats {
			nc.coreStats[i] = CoreStats{}
		}
	}
}

// CheckMESI validates the MESI safety invariant (DESIGN.md §5, invariant
// 1) against the coherence directory: at most one node holds a line
// Modified/Exclusive, an M/E holder is the line's only holder (Shared
// never coexists with M/E elsewhere), and a Modified line always has an
// owner. It returns the first violation found, or nil. Tests and
// experiments may call it at any quiescent point; it reads only directory
// state and charges no simulated cycles.
func (h *Hierarchy) CheckMESI() error {
	var err error
	h.dir.forEach(func(ln lineAddr, e *dirEntry) {
		if err != nil {
			return
		}
		switch {
		case e.modified && e.owner == -1:
			err = fmt.Errorf("cache: line %#x is Modified with no owner", ln)
		case e.owner != -1 && e.owner != 0 && e.owner != 1:
			err = fmt.Errorf("cache: line %#x has invalid owner %d", ln, e.owner)
		case e.owner != -1 && !e.holders[e.owner]:
			err = fmt.Errorf("cache: line %#x owned M/E by node %d which is not a holder", ln, e.owner)
		case e.owner != -1 && e.holders[1-e.owner]:
			err = fmt.Errorf("cache: line %#x held M/E by node %d while node %d also holds it (S coexists with M/E)",
				ln, e.owner, 1-e.owner)
		case e.holders[0] && e.holders[1] && (e.owner != -1 || e.modified):
			err = fmt.Errorf("cache: line %#x shared by both nodes but owner=%d modified=%v",
				ln, e.owner, e.modified)
		}
	})
	return err
}

// TraceContext records the accessing thread's current cycle and id so
// that events emitted from the next Access carry them. Callers only need
// to do this when a tracer is installed.
func (h *Hierarchy) TraceContext(cycle int64, tid int32) {
	h.ctxCycle = cycle
	h.ctxTid = tid
}

// entry returns the directory entry for a line, creating it as uncached.
// The pointer is valid only until the next directory mutation.
func (h *Hierarchy) entry(a lineAddr) *dirEntry {
	_, e := h.dir.ensure(a)
	return e
}

// entryFor is entry with the accessing core's last-line hint: a repeat
// access to the same line by the same core skips hashing and probing.
func (h *Hierarchy) entryFor(node, core int, a lineAddr) *dirEntry {
	d := &h.dir
	ht := &h.hints[node][core]
	if ht.ok && ht.ln == a && int(ht.idx) < len(d.slots) {
		if s := &d.slots[ht.idx]; s.used && s.key == a {
			return &s.e
		}
	}
	idx, e := d.ensure(a)
	*ht = dirHint{ln: a, idx: int32(idx), ok: true}
	return e
}

// Access simulates one memory access of size bytes at addr by (node, core)
// and returns the total latency in cycles. Accesses spanning multiple lines
// are charged per line, like the QEMU plugin does.
func (h *Hierarchy) Access(node mem.NodeID, core int, kind Kind, addr mem.PhysAddr, size int) sim.Cycles {
	if size <= 0 {
		size = 1
	}
	if h.Tap != nil {
		h.Tap(node, core, kind, addr, size)
	}
	first := lineOf(addr)
	last := lineOf(addr + mem.PhysAddr(size-1))
	if first == last {
		// The overwhelmingly common case: the access fits one line.
		return h.accessLine(int(node), core, kind, first)
	}
	var total sim.Cycles
	for ln := first; ln <= last; ln++ {
		total += h.accessLine(int(node), core, kind, ln)
	}
	return total
}

// accessLine performs the per-line simulation: coherence, lookup, fill.
// It counts the access and serves the most common one, a read hitting the
// L1's hot way, itself; accessSlow does the rest, so this path makes no
// call and spills nothing.
//
// Read L1 hits skip the directory: a line cached here cannot have a
// remote M/E owner (a remote write would have snoop-invalidated it; a
// remote read of an owned line demotes the owner), so the directory
// transaction would neither charge cycles nor change state. Skipping the
// directory probe entirely is therefore invisible to the timing model;
// the inclusion invariant guarantees the entry exists and records this
// node as a holder.
func (h *Hierarchy) accessLine(node, core int, kind Kind, ln lineAddr) sim.Cycles {
	nc := h.nodes[node]
	st := &nc.stats
	l1 := nc.l1d[core]
	cs := &nc.coreStats[core]
	if kind == Ifetch {
		l1 = nc.l1i[core]
		st.L1IAccesses++
		cs.L1IAccesses++
	} else {
		st.L1DAccesses++
		cs.L1DAccesses++
		st.MemAccesses++
	}
	if kind != Write && l1.tags[l1.hot] == tagOf(ln) {
		return nc.readHitL1(cs, kind, h.cfg.Nodes[node].Lat.L1)
	}
	return h.accessSlow(node, core, kind, ln, l1)
}

// accessSlow is accessLine past the hot-way check.
func (h *Hierarchy) accessSlow(node, core int, kind Kind, ln lineAddr, l1 *level) sim.Cycles {
	nc := h.nodes[node]
	st := &nc.stats
	cs := &nc.coreStats[core]
	lat := h.cfg.Nodes[node].Lat
	other := 1 - node
	isWrite := kind == Write

	if !isWrite && l1.probe(ln) >= 0 {
		return nc.readHitL1(cs, kind, lat.L1)
	}

	var cost sim.Cycles

	// Coherence actions against the other node (and other cores via
	// inclusion-maintained invalidation).
	e := h.entryFor(node, core, ln)
	if isWrite {
		if e.holders[other] {
			// CXL Snoop Invalidate: the other node must drop its copy.
			h.invalidateNode(other, ln)
			e.holders[other] = false
			cost += h.cfg.CrossNode.Invalidate
			st.SnoopInvalidations++
			h.nodes[other].stats.BackInvalidations++
			st.CoherenceLatency += h.cfg.CrossNode.Invalidate
			if tr := h.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: h.ctxCycle, Kind: trace.KindSnoopInvalidate,
					Node: int8(node), Core: int16(core), Tid: h.ctxTid,
					PA: uint64(ln) * mem.LineSize, Cost: int64(h.cfg.CrossNode.Invalidate)})
			}
		}
		e.holders[node] = true
		e.owner = int8(node)
		e.modified = true
	} else {
		if e.holders[other] && int(e.owner) == other {
			// CXL Snoop Data: M/E at the other node; forward data, both S.
			cost += h.cfg.CrossNode.Data
			st.SnoopDataForwards++
			st.CoherenceLatency += h.cfg.CrossNode.Data
			e.owner = -1
			e.modified = false
			if tr := h.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: h.ctxCycle, Kind: trace.KindSnoopData,
					Node: int8(node), Core: int16(core), Tid: h.ctxTid,
					PA: uint64(ln) * mem.LineSize, Cost: int64(h.cfg.CrossNode.Data)})
			}
		}
		wasCached := e.holders[0] || e.holders[1]
		e.holders[node] = true
		if !wasCached {
			e.owner = int8(node) // Exclusive
		} else if int(e.owner) != node {
			e.owner = -1 // Shared
		}
	}

	// Level lookups. Reads already probed (and missed) L1 above.
	if isWrite {
		if i := l1.probe(ln); i >= 0 {
			l1.setDirty(ln, i)
			st.L1DHits++
			cs.L1DHits++
			cost += lat.L1
			st.CacheHitLatency += lat.L1
			st.TotalLatency += cost
			return cost
		}
	}
	cost += lat.L1

	st.L2Accesses++
	l2 := nc.l2[core]
	if i2 := l2.probe(ln); i2 >= 0 {
		if isWrite {
			l2.setDirty(ln, i2)
		}
		st.L2Hits++
		cost += lat.L2
		st.CacheHitLatency += lat.L2
		l1.insert(ln, isWrite)
		st.TotalLatency += cost
		return cost
	}
	cost += lat.L2

	l3 := nc.l3
	if h.cfg.SharedL3 {
		l3 = h.sharedL3
	}
	if l3 != nil {
		st.L3Accesses++
		if i := l3.probe(ln); i >= 0 {
			if isWrite {
				l3.setDirty(ln, i)
			}
			st.L3Hits++
			cost += lat.L3
			st.CacheHitLatency += lat.L3
			l2.insert(ln, isWrite)
			l1.insert(ln, isWrite)
			st.TotalLatency += cost
			return cost
		}
		cost += lat.L3
	}

	// Memory access.
	pa := mem.PhysAddr(ln) * mem.LineSize
	loc := h.layout.Classify(mem.NodeID(node), pa)
	var memLat sim.Cycles
	if loc == mem.Local {
		st.LocalMemHits++
		memLat = lat.Mem
		st.LocalMemLatency += lat.Mem
	} else {
		st.RemoteMemHits++
		memLat = lat.RemoteMem
		st.RemoteMemLatency += lat.RemoteMem
		if r := h.layout.RegionAt(pa); r != nil && r.Owner == mem.NodeNone {
			st.RemoteSharedHits++
		}
	}
	cost += memLat
	if tr := h.Tracer; tr != nil {
		remote := int64(0)
		if loc != mem.Local {
			remote = 1
		}
		tr.Emit(trace.Event{Cycle: h.ctxCycle, Kind: trace.KindMemAccess,
			Node: int8(node), Core: int16(core), Tid: h.ctxTid,
			PA: uint64(pa), Arg: remote, Cost: int64(memLat)})
	}

	// Fill the whole hierarchy (inclusive). The inner levels discard their
	// evictions: the lines stay in the outer levels by inclusion.
	h.fillL3(node, core, l3, ln, isWrite)
	l2.insert(ln, isWrite)
	l1.insert(ln, isWrite)
	st.TotalLatency += cost
	return cost
}

// readHitL1 counts a read or instruction fetch that hit the L1 and
// returns its latency.
func (nc *nodeCaches) readHitL1(cs *CoreStats, kind Kind, l1 sim.Cycles) sim.Cycles {
	st := &nc.stats
	if kind == Ifetch {
		st.L1IHits++
		cs.L1IHits++
	} else {
		st.L1DHits++
		cs.L1DHits++
	}
	st.CacheHitLatency += l1
	st.TotalLatency += l1
	return l1
}

// fillL3 inserts into the last level, maintaining inclusion: an evicted
// valid line is back-invalidated out of the inner levels and, since the node
// then holds no copy, cleared from the coherence directory.
func (h *Hierarchy) fillL3(node, core int, l3 *level, ln lineAddr, dirty bool) {
	st := &h.nodes[node].stats
	if l3 == nil {
		// Small configs without an L3 enforce inclusion at L2 instead.
		l2 := h.nodes[node].l2[core]
		// The back-invalidation targets only the evicted line, which is
		// never ln (ln missed this L2), so the fill stays put.
		if _, evicted, wasValid, wasDirty := l2.insert(ln, dirty); wasValid {
			h.onLastLevelEvict(node, evicted, wasDirty)
		}
		return
	}
	_, evicted, wasValid, wasDirty := l3.insert(ln, dirty)
	if !wasValid {
		return
	}
	st.EvictionsL3++
	if h.cfg.SharedL3 {
		// The shared L3 backs both nodes; evicting drops the line everywhere.
		for n := 0; n < 2; n++ {
			h.onLastLevelEvict(n, evicted, wasDirty)
		}
		return
	}
	h.onLastLevelEvict(node, evicted, wasDirty)
}

// onLastLevelEvict back-invalidates inner levels and updates the directory
// after a line fully leaves node's hierarchy.
func (h *Hierarchy) onLastLevelEvict(node int, ln lineAddr, dirty bool) {
	nc := h.nodes[node]
	for c := range nc.l2 {
		if nc.l2[c].invalidate(ln) {
			dirty = true
		}
		if nc.l1d[c].invalidate(ln) {
			dirty = true
		}
		nc.l1i[c].invalidate(ln)
	}
	e := h.entry(ln)
	e.holders[node] = false
	if int(e.owner) == node {
		e.owner = -1
		e.modified = false
	}
	if dirty {
		pa := mem.PhysAddr(ln) * mem.LineSize
		if h.layout.Classify(mem.NodeID(node), pa) == mem.Remote {
			nc.stats.WritebacksToRemote++
		}
	}
	if !e.holders[0] && !e.holders[1] {
		h.dir.remove(ln)
	}
}

// invalidateNode removes a line from every level of a node's hierarchy
// (the receiving side of a Snoop Invalidate).
func (h *Hierarchy) invalidateNode(node int, ln lineAddr) {
	nc := h.nodes[node]
	for c := range nc.l2 {
		nc.l1i[c].invalidate(ln)
		nc.l1d[c].invalidate(ln)
		nc.l2[c].invalidate(ln)
	}
	if nc.l3 != nil {
		nc.l3.invalidate(ln)
	}
	// With a shared L3 the line stays resident for the writer; only the
	// other node's private levels are flushed, which the loop above did.
}

// HoldsLine reports whether node currently caches the line containing addr
// according to the coherence directory (used by invariant tests).
func (h *Hierarchy) HoldsLine(node mem.NodeID, addr mem.PhysAddr) bool {
	ln := lineOf(addr)
	e := h.dir.get(ln)
	return e != nil && e.holders[node]
}

// OwnerOf returns the node holding the line M/E, or -1 if shared/uncached.
func (h *Hierarchy) OwnerOf(addr mem.PhysAddr) int {
	ln := lineOf(addr)
	e := h.dir.get(ln)
	if e == nil {
		return -1
	}
	return int(e.owner)
}

// Flush empties every cache in the machine (contents only; stats remain).
func (h *Hierarchy) Flush() {
	for _, nc := range h.nodes {
		for c := range nc.l2 {
			nc.l1i[c].flushAll()
			nc.l1d[c].flushAll()
			nc.l2[c].flushAll()
		}
		if nc.l3 != nil {
			nc.l3.flushAll()
		}
	}
	if h.sharedL3 != nil {
		h.sharedL3.flushAll()
	}
	h.dir.reset()
	for n := range h.hints {
		for c := range h.hints[n] {
			h.hints[n][c] = dirHint{}
		}
	}
}
