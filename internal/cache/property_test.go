package cache

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// checkMESI asserts DESIGN invariant 1 (the exported Hierarchy.CheckMESI)
// at one step of a schedule.
func checkMESI(t *testing.T, h *Hierarchy, step int) {
	t.Helper()
	if err := h.CheckMESI(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// candidateLines builds a small pool of addresses drawn from every region
// of the layout (both nodes' local memory plus any shared pool), kept
// deliberately tight so random schedules produce heavy cross-node sharing,
// set conflicts, and L3 evictions.
func candidateLines(layout *mem.Layout) []mem.PhysAddr {
	var addrs []mem.PhysAddr
	add := func(r mem.Region) {
		for i := 0; i < 24; i++ {
			addrs = append(addrs, r.Start+mem.PhysAddr(i*mem.LineSize))
			// A second run far into the region, aliasing the first run's
			// cache sets at a different tag.
			addrs = append(addrs, r.Start+mem.PhysAddr(i*mem.LineSize)+(1<<26))
		}
	}
	for n := 0; n < 2; n++ {
		for _, r := range layout.OwnedRegions(mem.NodeID(n)) {
			add(r)
		}
	}
	for _, r := range layout.SharedRegions() {
		add(r)
	}
	return addrs
}

// TestMESIInvariantRandomSchedules drives random cross-node access
// schedules through the hierarchy in all three hardware models and checks
// the MESI safety invariant after every access (DESIGN.md §5, invariant 1).
func TestMESIInvariantRandomSchedules(t *testing.T) {
	const (
		seeds = 6
		steps = 3000
	)
	for _, model := range []mem.Model{mem.Separated, mem.Shared, mem.FullyShared} {
		model := model
		t.Run(fmt.Sprintf("model=%d", int(model)), func(t *testing.T) {
			layout := mem.DefaultLayout(model)
			addrs := candidateLines(&layout)
			if len(addrs) == 0 {
				t.Fatal("no candidate addresses")
			}
			for seed := uint64(1); seed <= seeds; seed++ {
				h := NewHierarchy(DefaultConfig(model), &layout)
				rng := sim.NewRNG(seed*0x9E37 + uint64(model))
				for step := 0; step < steps; step++ {
					node := mem.NodeID(rng.Intn(2))
					kind := Kind(rng.Intn(3))
					addr := addrs[rng.Intn(len(addrs))]
					size := 1 << rng.Intn(4) // 1..8 bytes
					// Occasionally straddle a line boundary.
					if rng.Intn(8) == 0 {
						addr += mem.PhysAddr(mem.LineSize - 2)
						size = 4
					}
					h.Access(node, 0, kind, addr, size)
					checkMESI(t, h, step)
				}
				// Directory state must also agree with the public view.
				h.dir.forEach(func(ln lineAddr, e *dirEntry) {
					pa := mem.PhysAddr(ln) * mem.LineSize
					for n := 0; n < 2; n++ {
						if h.HoldsLine(mem.NodeID(n), pa) != e.holders[n] {
							t.Fatalf("HoldsLine(%d, %#x) disagrees with directory", n, pa)
						}
					}
					if h.OwnerOf(pa) != int(e.owner) {
						t.Fatalf("OwnerOf(%#x) = %d, directory says %d", pa, h.OwnerOf(pa), e.owner)
					}
				})
			}
		})
	}
}
