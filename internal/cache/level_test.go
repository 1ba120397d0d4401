package cache

// Differential test for the struct-of-arrays cache level (hierarchy.go):
// the per-way timestamp level it replaced is kept here, verbatim in its
// semantics, as the reference. Both are driven through identical operation
// sequences and must agree on every observation, because the victim a
// level picks is timing-relevant: exact LRU and "first invalid way by
// index" are part of the simulated-cycle contract.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// stampWay is one way of the reference level: a tag plus replacement state.
type stampWay struct {
	line  lineAddr
	valid bool
	dirty bool
	used  int64 // the level's LRU clock at the way's last use
}

// stampLevel is the reference: one 24-byte record per way, a per-level
// clock stamped on every hit and fill, and a victim search for the first
// invalid way, else the smallest stamp.
type stampLevel struct {
	ways  []stampWay
	mru   int // the way the last scanning hit returned, -1 for none
	assoc int
	mask  uint64
	tick  int64
}

func newStampLevel(c LevelConfig) *stampLevel {
	n := c.Sets()
	return &stampLevel{ways: make([]stampWay, n*c.Ways), mru: -1, assoc: c.Ways, mask: uint64(n - 1)}
}

func (l *stampLevel) setBase(a lineAddr) int { return int(uint64(a)&l.mask) * l.assoc }

func (l *stampLevel) lookup(a lineAddr) int {
	base := l.setBase(a)
	for i := base; i < base+l.assoc; i++ {
		if l.ways[i].valid && l.ways[i].line == a {
			return i
		}
	}
	return -1
}

func (l *stampLevel) stamp(i int) {
	l.tick++
	l.ways[i].used = l.tick
}

// hit is the reference's hit path: the mru way if it holds a, else a
// scan that remembers its result, and a stamp on whatever was found.
func (l *stampLevel) hit(a lineAddr) int {
	i := l.mru
	if i < 0 || !l.ways[i].valid || l.ways[i].line != a {
		if i = l.lookup(a); i < 0 {
			return -1
		}
		l.mru = i
	}
	l.stamp(i)
	return i
}

func (l *stampLevel) insert(a lineAddr) (i int, evicted lineAddr, wasValid, wasDirty bool) {
	base := l.setBase(a)
	victim := base
	for j := base; j < base+l.assoc; j++ {
		if !l.ways[j].valid {
			victim = j
			break
		}
		if l.ways[j].used < l.ways[victim].used {
			victim = j
		}
	}
	w := &l.ways[victim]
	evicted, wasValid, wasDirty = w.line, w.valid, w.dirty
	l.tick++
	*w = stampWay{line: a, valid: true, used: l.tick}
	return victim, evicted, wasValid, wasDirty
}

func (l *stampLevel) invalidate(a lineAddr) (present, dirty bool) {
	if i := l.lookup(a); i >= 0 {
		present, dirty = true, l.ways[i].dirty
		l.ways[i] = stampWay{}
	}
	return present, dirty
}

func (l *stampLevel) flushAll() {
	for i := range l.ways {
		l.ways[i] = stampWay{}
	}
}

// levelGeometries are the differential test's levels: both associativities
// the machine uses, each with several sets and as a single set.
var levelGeometries = []LevelConfig{
	{Size: 4 * 8 * mem.LineSize, Ways: 8},
	{Size: 1 * 8 * mem.LineSize, Ways: 8},
	{Size: 2 * 16 * mem.LineSize, Ways: 16},
	{Size: 1 * 16 * mem.LineSize, Ways: 16},
}

// levelOp is one operation of a replayed sequence: kind selects the
// operation and line indexes a pool of lines that overfills every set.
type levelOp struct{ kind, line byte }

// replayLevelOps drives the level and the reference through ops and
// returns the first disagreement. The line pool holds assoc+3 lines per
// set, so sets fill, evict and refill; a line number of zero is included
// because it is the tag the zero value must not alias.
func replayLevelOps(c LevelConfig, ops []levelOp) error {
	l, ref := newLevel(c), newStampLevel(c)
	pool := make([]lineAddr, 0, c.Sets()*(c.Ways+3))
	for k := 0; k < c.Ways+3; k++ {
		for s := 0; s < c.Sets(); s++ {
			pool = append(pool, lineAddr(k*c.Sets()+s))
		}
	}
	for step, op := range ops {
		a := pool[int(op.line)%len(pool)]
		switch op.kind % 16 {
		case 0, 1, 2:
			// A pure lookup: same way, no state change.
			if got, want := l.lookup(a), ref.lookup(a); got != want {
				return fmt.Errorf("step %d: lookup(%d) = way %d, reference %d", step, a, got, want)
			}
		case 3, 4, 5, 6:
			// A hit, as the L2 and L3 take it or through the L1 fast path.
			want := ref.hit(a)
			got := l.hot
			if op.kind&16 != 0 || l.tags[got] != tagOf(a) {
				got = l.probe(a)
			}
			if got != want {
				return fmt.Errorf("step %d: probe(%d) = way %d, reference %d", step, a, got, want)
			}
		case 7, 8, 9, 10, 11:
			// A fill, clean or dirty, whether or not a is already held
			// (the no-L3 inclusion path fills an L2 twice).
			dirty := op.kind&16 != 0
			wi, wev, wval, wdirty := ref.insert(a)
			if dirty {
				ref.ways[wi].dirty = true
			}
			gi, gev, gval, gdirty := l.insert(a, dirty)
			if gi != wi || gev != wev || gval != wval || gdirty != wdirty {
				return fmt.Errorf("step %d: insert(%d) = (way %d, evicted %d, valid %v, dirty %v), reference (%d, %d, %v, %v)",
					step, a, gi, gev, gval, gdirty, wi, wev, wval, wdirty)
			}
		case 12, 13:
			// A write hit marks the way dirty.
			if i := ref.lookup(a); i >= 0 {
				ref.ways[i].dirty = true
				l.setDirty(a, i)
			}
		case 14:
			present, wdirty := ref.invalidate(a)
			if got := l.invalidate(a); got != (present && wdirty) {
				return fmt.Errorf("step %d: invalidate(%d) dirty = %v, reference present %v dirty %v", step, a, got, present, wdirty)
			}
		case 15:
			if op.kind&16 == 0 {
				continue // keep whole-level flushes rare
			}
			ref.flushAll()
			l.flushAll()
		}
	}
	for _, a := range pool {
		if got, want := l.lookup(a), ref.lookup(a); got != want {
			return fmt.Errorf("end: lookup(%d) = way %d, reference %d", a, got, want)
		}
	}
	return nil
}

// TestLevelMatchesStampLRU replays random lookup, hit, fill, write,
// invalidate and flush sequences on the level and on the stamp-per-way
// reference over 8- and 16-way geometries, one of each with a single set,
// and requires the same hit way, victim, evicted line, validity and
// dirtiness at every step.
func TestLevelMatchesStampLRU(t *testing.T) {
	const steps = 20000
	for _, c := range levelGeometries {
		for seed := uint64(1); seed <= 4; seed++ {
			c, seed := c, seed
			t.Run(fmt.Sprintf("ways=%d/sets=%d/seed=%d", c.Ways, c.Sets(), seed), func(t *testing.T) {
				rng := sim.NewRNG(seed * 0x9E3779B9)
				ops := make([]levelOp, steps)
				for i := range ops {
					ops[i] = levelOp{kind: byte(rng.Intn(32)), line: byte(rng.Intn(256))}
				}
				if err := replayLevelOps(c, ops); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzLevelLRU is the fuzzing form of TestLevelMatchesStampLRU: the first
// byte picks the geometry, every following pair of bytes is one operation.
func FuzzLevelLRU(f *testing.F) {
	f.Add([]byte{0, 7, 1, 7, 2, 3, 1, 14, 1, 7, 3})
	f.Add([]byte{3, 7, 0, 7, 1, 7, 2, 23, 3, 3, 0, 14, 2, 31, 0, 7, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := levelGeometries[int(data[0])%len(levelGeometries)]
		var ops []levelOp
		for i := 1; i+1 < len(data); i += 2 {
			ops = append(ops, levelOp{kind: data[i], line: data[i+1]})
		}
		if err := replayLevelOps(c, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPromote pins the recency-word primitive on its edge positions: the
// front (no change), the LRU end of a full 16-way word (the nibble at bit
// 60, whose upper neighbour is the word's end) and a middle nibble.
func TestPromote(t *testing.T) {
	const r = 0xFEDCBA9876543210 // way p at position p
	cases := []struct{ w, want uint64 }{
		{0, r},
		{15, 0xEDCBA9876543210F},
		{5, 0xFEDCBA9876432105},
	}
	for _, c := range cases {
		if got := promote(r, c.w); got != c.want {
			t.Errorf("promote(%#x, %d) = %#x, want %#x", uint64(r), c.w, got, c.want)
		}
	}
}

// TestNewHierarchyAllocBound is the host-memory guard of the level layout:
// booting the default evaluation hierarchy allocates at most a third of
// what one 24-byte record per way cost (the layout this one replaced,
// about 4.0 MB for this configuration).
func TestNewHierarchyAllocBound(t *testing.T) {
	cfg := DefaultConfig(mem.Shared)
	layout := mem.DefaultLayout(mem.Shared)
	ways := 0
	for _, nc := range cfg.Nodes {
		ways += nc.Cores * (nc.L1I.Size + nc.L1D.Size + nc.L2.Size) / mem.LineSize
		ways += nc.L3.Size / mem.LineSize
	}
	recordBytes := uint64(24 * ways)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewHierarchy(cfg, &layout)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	if got := after.TotalAlloc - before.TotalAlloc; got > recordBytes/3 {
		t.Errorf("NewHierarchy allocated %d bytes, want at most %d (a third of %d for 24-byte ways)", got, recordBytes/3, recordBytes)
	}
}

// BenchmarkNewHierarchy reports the host cost of booting a machine's cache
// model: the default evaluation geometry, and the 32 MiB L3 of the big
// validation pair (internal/hwref), the largest any experiment boots.
func BenchmarkNewHierarchy(b *testing.B) {
	big := DefaultConfig(mem.Shared)
	big.Nodes[0].L3.Size, big.Nodes[1].L3.Size = 32<<20, 32<<20
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig(mem.Shared)}, {"bigpair-l3-32MiB", big}} {
		b.Run(bc.name, func(b *testing.B) {
			layout := mem.DefaultLayout(mem.Shared)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewHierarchy(bc.cfg, &layout)
			}
		})
	}
}

// TestConfigValidateGeometry is the table over the geometries a level can
// and cannot hold; NewHierarchy panics on exactly the configurations
// Validate rejects, and machine.Config.Validate turns the user-reachable
// ones (L2Size, L3Size, L3PerNode) into a *machine.ConfigError.
func TestConfigValidateGeometry(t *testing.T) {
	layout := mem.DefaultLayout(mem.Shared)
	huge := mem.Layout{Model: mem.Shared, Regions: []mem.Region{
		{Name: "low", Start: 0, Size: 1 << 30, Owner: mem.NodeX86},
		{Name: "beyond-tags", Start: 256 << 30, Size: 1 << 30, Owner: mem.NodeNone},
	}}
	edge := mem.Layout{Model: mem.Shared, Regions: []mem.Region{
		{Name: "to-the-last-tag", Start: 0, Size: MaxPhysEnd, Owner: mem.NodeNone},
	}}
	with := func(f func(*Config)) Config {
		c := DefaultConfig(mem.Shared)
		f(&c)
		return c
	}
	cases := []struct {
		name   string
		cfg    Config
		layout *mem.Layout
		ok     bool
	}{
		{"default", DefaultConfig(mem.Shared), &layout, true},
		{"l3-disabled", with(func(c *Config) { c.Nodes[1].L3 = LevelConfig{} }), &layout, true},
		{"16-ways", with(func(c *Config) { c.Nodes[0].L2 = LevelConfig{Size: 1 << 20, Ways: 16} }), &layout, true},
		{"one-way", with(func(c *Config) { c.Nodes[0].L2 = LevelConfig{Size: 1 << 20, Ways: 1} }), &layout, true},
		{"17-ways", with(func(c *Config) { c.Nodes[0].L3 = LevelConfig{Size: 17 * 4096 * mem.LineSize, Ways: 17} }), &layout, false},
		{"32-ways", with(func(c *Config) { c.Nodes[1].L3 = LevelConfig{Size: 4 << 20, Ways: 32} }), &layout, false},
		{"zero-ways", with(func(c *Config) { c.Nodes[0].L2 = LevelConfig{Size: 1 << 20} }), &layout, false},
		{"sets-not-power-of-two", with(func(c *Config) { c.Nodes[0].L3.Size = 3 << 20 }), &layout, false},
		{"under-one-set", with(func(c *Config) { c.Nodes[0].L3.Size = 100 }), &layout, false},
		{"negative-size", with(func(c *Config) { c.Nodes[0].L2.Size = -1 }), &layout, false},
		{"l1-disabled", with(func(c *Config) { c.Nodes[1].L1D = LevelConfig{} }), &layout, false},
		{"l2-disabled", with(func(c *Config) { c.Nodes[0].L2 = LevelConfig{} }), &layout, false},
		{"tags-reach-layout-end", DefaultConfig(mem.Shared), &edge, true},
		{"layout-past-32-bit-tags", DefaultConfig(mem.Shared), &huge, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(tc.layout)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
