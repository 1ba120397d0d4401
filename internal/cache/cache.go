// Package cache implements the Stramash-QEMU style memory-system timing
// model: a three-level set-associative cache hierarchy per node (private
// L1I/L1D/L2 per core, L3 per node or shared), a MESI coherence directory
// spanning the nodes, and CXL snoop-cost accounting (Snoop Invalidate,
// Snoop Data, Back-Invalidate — CXL 3.0 §7.3 of the paper).
//
// The model is access-driven exactly like the paper's extended QEMU cache
// plugin: every memory reference is pushed through the hierarchy, the level
// that hits charges its latency, a miss charges the local or remote memory
// latency according to the hardware model, and cross-node sharing charges
// snoop overheads. The resulting cycle count is fed back to the requesting
// thread's clock.
package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Kind classifies a memory access.
type Kind int

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
	// Ifetch is an instruction fetch (L1I instead of L1D).
	Ifetch
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Ifetch:
		return "ifetch"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Latencies holds the per-level and memory latencies in cycles, matching
// Table 2 of the paper.
type Latencies struct {
	L1        sim.Cycles
	L2        sim.Cycles
	L3        sim.Cycles
	Mem       sim.Cycles // local memory
	RemoteMem sim.Cycles // remote memory over the coherent interconnect
}

// XeonGoldLatencies are the x86 node latencies from Table 2 (Xeon Gold:
// 4/14/50/300 cycles, 640 remote).
func XeonGoldLatencies() Latencies {
	return Latencies{L1: 4, L2: 14, L3: 50, Mem: 300, RemoteMem: 640}
}

// ThunderX2Latencies are the Arm node latencies from Table 2 (ThunderX2:
// 4/9/30/300 cycles, 620 remote).
func ThunderX2Latencies() Latencies {
	return Latencies{L1: 4, L2: 9, L3: 30, Mem: 300, RemoteMem: 620}
}

// CortexA72Latencies are the small-Arm latencies from Table 2 (A72: 4/9,
// no L3, 300/780). The zero L3 size in the small configs disables the level.
func CortexA72Latencies() Latencies {
	return Latencies{L1: 4, L2: 9, L3: 0, Mem: 300, RemoteMem: 780}
}

// E5Latencies are the small-x86 latencies from Table 2 (E5-2620:
// 4/12/38/300/640).
func E5Latencies() Latencies {
	return Latencies{L1: 4, L2: 12, L3: 38, Mem: 300, RemoteMem: 640}
}

// SnoopCosts are the CXL coherence message overheads charged when a line
// moves between the two nodes' cache hierarchies.
type SnoopCosts struct {
	// Invalidate is charged to a writer whose line is cached by the other
	// node (CXL "Snoop Invalidate" / "Back-Invalidate Snoop").
	Invalidate sim.Cycles
	// Data is charged to a reader whose line is held Modified/Exclusive by
	// the other node (CXL "Snoop Data", M/E -> S with data forward).
	Data sim.Cycles
}

// DefaultSnoopCosts returns CXL-scale snoop costs: a cross-device
// invalidation or data forward costs on the order of half a remote-memory
// access (CXL.mem round-trip without the data array read).
func DefaultSnoopCosts() SnoopCosts {
	return SnoopCosts{Invalidate: 160, Data: 200}
}

// OnChipSnoopCosts returns the much smaller costs used between cores of the
// same chip and for the FullyShared single-chip model.
func OnChipSnoopCosts() SnoopCosts {
	return SnoopCosts{Invalidate: 30, Data: 40}
}

// LevelConfig sizes one cache level. A Size of zero disables the level.
type LevelConfig struct {
	Size int // bytes
	Ways int
}

// Sets returns the number of sets for this geometry.
func (c LevelConfig) Sets() int {
	if c.Size == 0 {
		return 0
	}
	return c.Size / (c.Ways * mem.LineSize)
}

// Validate checks that the level's geometry is one a level can hold: a
// zero size (the level is disabled), or 1..MaxWays ways over a non-zero
// power-of-two number of whole sets.
func (c LevelConfig) Validate() error {
	switch {
	case c.Size == 0:
		return nil
	case c.Size < 0:
		return fmt.Errorf("size %d must not be negative", c.Size)
	case c.Ways < 1 || c.Ways > MaxWays:
		return fmt.Errorf("%d ways, want 1..%d", c.Ways, MaxWays)
	}
	n := c.Sets()
	if n == 0 || n&(n-1) != 0 || n*c.Ways*mem.LineSize != c.Size {
		return fmt.Errorf("size %d over %d ways of %d-byte lines is not a non-zero power-of-two number of sets",
			c.Size, c.Ways, mem.LineSize)
	}
	return nil
}

// NodeConfig describes one node's cache hierarchy.
type NodeConfig struct {
	Cores int
	L1I   LevelConfig // per core
	L1D   LevelConfig // per core
	L2    LevelConfig // per core
	L3    LevelConfig // per node
	Lat   Latencies
}

// DefaultNodeConfig returns the evaluation configuration used throughout
// §9.2: 32 KiB 8-way L1s, 1 MiB 16-way L2, 4 MiB 16-way L3.
func DefaultNodeConfig(lat Latencies) NodeConfig {
	return NodeConfig{
		Cores: 1,
		L1I:   LevelConfig{Size: 32 << 10, Ways: 8},
		L1D:   LevelConfig{Size: 32 << 10, Ways: 8},
		L2:    LevelConfig{Size: 1 << 20, Ways: 16},
		L3:    LevelConfig{Size: 4 << 20, Ways: 16},
		Lat:   lat,
	}
}

// Config describes the whole machine's memory system.
type Config struct {
	Nodes [2]NodeConfig
	// SharedL3 fuses the two nodes' L3s into a single shared last-level
	// cache (the FullyShared single-chip model). The shared L3 uses the
	// geometry of node 0's L3 config.
	SharedL3 bool
	// CrossNode is the snoop cost for coherence between the two nodes.
	CrossNode SnoopCosts
	// IntraNode is the snoop cost between cores of one node.
	IntraNode SnoopCosts
}

// DefaultConfig returns the evaluation machine: Xeon Gold x86 node,
// ThunderX2 Arm node, CXL costs between them.
func DefaultConfig(model mem.Model) Config {
	cfg := Config{
		Nodes: [2]NodeConfig{
			DefaultNodeConfig(XeonGoldLatencies()),
			DefaultNodeConfig(ThunderX2Latencies()),
		},
		CrossNode: DefaultSnoopCosts(),
		IntraNode: OnChipSnoopCosts(),
	}
	if model == mem.FullyShared {
		cfg.SharedL3 = true
		cfg.CrossNode = OnChipSnoopCosts()
	}
	return cfg
}

// Validate checks every level of both nodes (only the L3 may be
// disabled) and that every line of the physical layout fits a level's
// 32-bit tag (the layout must end at or below MaxPhysEnd).
func (c Config) Validate(layout *mem.Layout) error {
	for n, nc := range c.Nodes {
		for _, lv := range []struct {
			name string
			cfg  LevelConfig
		}{{"L1I", nc.L1I}, {"L1D", nc.L1D}, {"L2", nc.L2}, {"L3", nc.L3}} {
			if err := lv.cfg.Validate(); err != nil {
				return fmt.Errorf("cache: node %d %s: %w", n, lv.name, err)
			}
			if lv.cfg.Size == 0 && lv.name != "L3" {
				return fmt.Errorf("cache: node %d %s: only the L3 may be disabled", n, lv.name)
			}
		}
	}
	for _, r := range layout.Regions {
		if end := uint64(r.Start) + r.Size; end > MaxPhysEnd {
			return fmt.Errorf("cache: region %s ends at %#x, past the %#x a 32-bit line tag reaches", r.Name, end, uint64(MaxPhysEnd))
		}
	}
	return nil
}

// Stats mirrors the counters printed by the paper's artifact (per node).
type Stats struct {
	L1IAccesses, L1IHits int64
	L1DAccesses, L1DHits int64
	L2Accesses, L2Hits   int64
	L3Accesses, L3Hits   int64

	LocalMemHits       int64
	RemoteMemHits      int64
	RemoteSharedHits   int64 // remote hits landing in the CXL shared pool
	SnoopInvalidations int64
	SnoopDataForwards  int64
	MemAccesses        int64 // total data accesses
	TotalLatency       sim.Cycles
	LocalMemLatency    sim.Cycles
	RemoteMemLatency   sim.Cycles
	CoherenceLatency   sim.Cycles
	CacheHitLatency    sim.Cycles
	WritebacksToRemote int64
	BackInvalidations  int64
	EvictionsL3        int64
}

// CoreStats is the per-core slice of the private-cache counters: which
// core issued the accesses and where its L1s hit. Multi-core experiments
// read it to prove every configured core was exercised.
type CoreStats struct {
	L1IAccesses, L1IHits int64
	L1DAccesses, L1DHits int64
}

// HitRate returns hits/accesses for the given counters, or 0 for no accesses.
func HitRate(hits, accesses int64) float64 {
	if accesses == 0 {
		return 0
	}
	return float64(hits) / float64(accesses)
}
