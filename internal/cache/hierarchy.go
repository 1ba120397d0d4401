package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lineAddr is a physical address divided by the line size.
type lineAddr uint64

func lineOf(a mem.PhysAddr) lineAddr { return lineAddr(a >> mem.LineShift) }

// way is one cache way: a tag plus replacement state.
type way struct {
	line  lineAddr
	valid bool
	dirty bool
	used  int64 // global LRU timestamp
}

// level is one set-associative cache level with true LRU replacement. The
// ways of all sets live in one contiguous array (set s occupies
// ways[s*assoc : (s+1)*assoc]), so a lookup is a shift, a mask and a short
// scan of adjacent memory — no per-set slice headers, no division.
//
// mru caches the way returned by the last successful lookup. Accesses
// repeat lines heavily (eight consecutive words share a line), so the
// common case degenerates to one pointer check. The pointer never dangles:
// ways is never reallocated, and a reused or invalidated way fails the
// valid/line check.
type level struct {
	ways  []way
	mru   *way
	assoc int
	mask  uint64
	// tick is the level's private LRU clock, bumped once per stamp; victim
	// selection compares timestamps only within one level.
	tick int64
}

func newLevel(c LevelConfig) *level {
	n := c.Sets()
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d)", n, c.Size, c.Ways))
	}
	return &level{ways: make([]way, n*c.Ways), assoc: c.Ways, mask: uint64(n - 1)}
}

func (l *level) setOf(a lineAddr) []way {
	s := (uint64(a) & l.mask) * uint64(l.assoc)
	return l.ways[s : s+uint64(l.assoc)]
}

// lookup returns the way holding a, or nil, remembering a hit in l.mru.
// The mru check itself lives in hit(), not here, so this function stays
// within the compiler's inlining budget for the miss-path callers.
func (l *level) lookup(a lineAddr) *way {
	if l == nil {
		return nil
	}
	set := l.setOf(a)
	for i := range set {
		if set[i].valid && set[i].line == a {
			l.mru = &set[i]
			return &set[i]
		}
	}
	return nil
}

// insert fills a into the level, evicting the LRU way if needed. It returns
// the way now holding a (so callers can mark it dirty without a second set
// scan) plus the evicted line and whether an eviction of a valid (possibly
// dirty) line happened.
func (l *level) insert(a lineAddr) (filled *way, evicted lineAddr, wasValid, wasDirty bool) {
	if l == nil {
		return nil, 0, false, false
	}
	set := l.setOf(a)
	victim := l.victimIn(set)
	w := &set[victim]
	evicted, wasValid, wasDirty = w.line, w.valid, w.dirty
	l.tick++
	*w = way{line: a, valid: true, used: l.tick}
	return w, evicted, wasValid, wasDirty
}

// victimIn returns the index insert would evict from the given set: the
// first invalid way, else the least recently used.
func (l *level) victimIn(set []way) int {
	victim := 0
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	return victim
}

// stamp marks a way most recently used.
func (l *level) stamp(w *way) {
	l.tick++
	w.used = l.tick
}

// invalidate removes a from the level, returning whether it was present and
// whether it was dirty.
func (l *level) invalidate(a lineAddr) (present, dirty bool) {
	if l == nil {
		return false, false
	}
	set := l.setOf(a)
	for i := range set {
		if set[i].valid && set[i].line == a {
			present, dirty = true, set[i].dirty
			set[i] = way{}
			return present, dirty
		}
	}
	return false, false
}

// flushAll invalidates every line (used by tests and node reset).
func (l *level) flushAll() {
	if l == nil {
		return
	}
	for i := range l.ways {
		l.ways[i] = way{}
	}
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
// physical layout.
func NewHierarchy(cfg Config, layout *mem.Layout) *Hierarchy {
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
func (h *Hierarchy) accessLine(node, core int, kind Kind, ln lineAddr) sim.Cycles {
	nc := h.nodes[node]
	st := &nc.stats
	lat := h.cfg.Nodes[node].Lat
	other := 1 - node
	isWrite := kind == Write

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

	if !isWrite {
		// Read L1-hit fast path: a line cached here cannot have a remote
		// M/E owner (a remote write would have snoop-invalidated it; a
		// remote read of an owned line demotes the owner), so the
		// directory transaction below would neither charge cycles nor
		// change state. Skipping the directory probe entirely is therefore
		// invisible to the timing model; the inclusion invariant
		// guarantees the entry exists and records this node as a holder.
		// The mru check is hoisted out of lookup (here and below) so both
		// halves stay within the inlining budget.
		w := l1.mru
		if w == nil || !w.valid || w.line != ln {
			w = l1.lookup(ln)
		}
		if w != nil {
			l1.stamp(w)
			if kind == Ifetch {
				st.L1IHits++
				cs.L1IHits++
			} else {
				st.L1DHits++
				cs.L1DHits++
			}
			st.CacheHitLatency += lat.L1
			st.TotalLatency += lat.L1
			return lat.L1
		}
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
		w := l1.mru
		if w == nil || !w.valid || w.line != ln {
			w = l1.lookup(ln)
		}
		if w != nil {
			l1.stamp(w)
			w.dirty = true
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
	var w2 *way
	if l2 != nil {
		w2 = l2.mru
		if w2 == nil || !w2.valid || w2.line != ln {
			w2 = l2.lookup(ln)
		}
	}
	if w := w2; w != nil {
		l2.stamp(w)
		if isWrite {
			w.dirty = true
		}
		st.L2Hits++
		cost += lat.L2
		st.CacheHitLatency += lat.L2
		h.fillLevel(node, core, l1, ln, isWrite)
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
		w3 := l3.mru
		if w3 == nil || !w3.valid || w3.line != ln {
			w3 = l3.lookup(ln)
		}
		if w := w3; w != nil {
			l3.stamp(w)
			if isWrite {
				w.dirty = true
			}
			st.L3Hits++
			cost += lat.L3
			st.CacheHitLatency += lat.L3
			h.fillLevel(node, core, l2, ln, isWrite)
			h.fillLevel(node, core, l1, ln, isWrite)
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

	// Fill the whole hierarchy (inclusive).
	h.fillL3(node, core, l3, ln, isWrite, loc)
	h.fillLevel(node, core, l2, ln, isWrite)
	h.fillLevel(node, core, l1, ln, isWrite)
	st.TotalLatency += cost
	return cost
}

// fillLevel inserts a line into an inner level, discarding clean evictions
// (the line stays in the outer levels by inclusion).
func (h *Hierarchy) fillLevel(node, core int, l *level, ln lineAddr, dirty bool) {
	if l == nil {
		return
	}
	w, _, _, _ := l.insert(ln)
	if dirty {
		w.dirty = true
	}
	_ = node
	_ = core
}

// fillL3 inserts into the last level, maintaining inclusion: an evicted
// valid line is back-invalidated out of the inner levels and, since the node
// then holds no copy, cleared from the coherence directory.
func (h *Hierarchy) fillL3(node, core int, l3 *level, ln lineAddr, dirty bool, loc mem.Locality) {
	st := &h.nodes[node].stats
	if l3 == nil {
		// Small configs without an L3 enforce inclusion at L2 instead.
		w, evicted, wasValid, wasDirty := h.nodes[node].l2[core].insert(ln)
		if wasValid {
			h.onLastLevelEvict(node, evicted, wasDirty)
		}
		if dirty {
			// The back-invalidation above targets only the evicted line,
			// never ln, so w still holds the line just filled.
			w.dirty = true
		}
		return
	}
	w, evicted, wasValid, wasDirty := l3.insert(ln)
	if dirty {
		w.dirty = true
	}
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
		if p, d := nc.l2[c].invalidate(ln); p && d {
			dirty = true
		}
		if p, d := nc.l1d[c].invalidate(ln); p && d {
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
