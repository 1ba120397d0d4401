package main

import (
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/redisapp"
	"repro/internal/sim"
)

// counts accumulates the layer counters the program exports through its
// stats accessors, over the cells of the traced pass.
type counts struct {
	accesses, l1dAccesses, l1dHits int64
	eng                            sim.EngineStats
	messages, dsmPageRequests      int64
	remotePTWrites                 int64
	txFrames, retransmits          int64
	workerOps, futexWaits          int64
	fsyncBatches                   int64
	writebacks, invalidations      int64
}

// addMachine adds one machine's cache, messaging, personality, NIC and
// page-cache counters.
func (c *counts) addMachine(m *machine.Machine) {
	for _, n := range []mem.NodeID{mem.NodeX86, mem.NodeArm} {
		s := m.CacheStats(n)
		c.accesses += s.MemAccesses
		c.l1dAccesses += s.L1DAccesses
		c.l1dHits += s.L1DHits
	}
	c.messages += m.Messages()
	c.dsmPageRequests += m.PopcornStats().DSMPageRequests
	c.remotePTWrites += m.StramashStats().RemotePTWrites
	nic := m.NICStats()
	c.txFrames += nic.TxFrames
	c.retransmits += nic.Retransmits
	fs := m.FileStats()
	c.writebacks += fs.Writebacks[0] + fs.Writebacks[1]
	c.invalidations += fs.Invalidations[0] + fs.Invalidations[1]
}

// addCluster adds every machine of a cluster and its shared engine.
func (c *counts) addCluster(cl *machine.Cluster) {
	for _, m := range cl.Machines {
		c.addMachine(m)
	}
	c.addEngine(cl.EngineStats())
}

func (c *counts) addEngine(s sim.EngineStats) {
	c.eng.SerialSegments += s.SerialSegments
	c.eng.SoloSegments += s.SoloSegments
	c.eng.DomainSegments += s.DomainSegments
	c.eng.Parks += s.Parks
	c.eng.Phases += s.Phases
	c.eng.PhaseDomains += s.PhaseDomains
	c.eng.SerialCycles += s.SerialCycles
	c.eng.SoloCycles += s.SoloCycles
	c.eng.DomainCycles += s.DomainCycles
}

func (c *counts) addProd(st redisapp.ProdStats) {
	for _, w := range st.PerWorker {
		c.workerOps += w.Ops
		c.futexWaits += w.FutexWaits
		c.fsyncBatches += w.FsyncBatches
	}
}

// report adds the counters; wall is the untraced host time of the runs
// the counters came from, for host_ns_per_access.
func (c *counts) report(m map[string]metric, wall time.Duration) {
	n := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	n("cache.accesses", c.accesses)
	ratio := 0.0
	if c.l1dAccesses > 0 {
		ratio = float64(c.l1dHits) / float64(c.l1dAccesses)
	}
	m["cache.l1d_hit_ratio"] = metric{ratio, "ratio"}
	perAccess := 0.0
	if c.accesses > 0 {
		perAccess = float64(wall.Nanoseconds()) / float64(c.accesses)
	}
	m["host_ns_per_access"] = metric{perAccess, "ns"}
	n("sim.segments", c.eng.SerialSegments+c.eng.SoloSegments+c.eng.DomainSegments)
	m["sim.serial_cycles"] = metric{float64(c.eng.SerialCycles), "cycles"}
	m["sim.solo_cycles"] = metric{float64(c.eng.SoloCycles), "cycles"}
	m["sim.domain_cycles"] = metric{float64(c.eng.DomainCycles), "cycles"}
	n("sim.parks", c.eng.Parks)
	width := 0.0
	if c.eng.Phases > 0 {
		width = float64(c.eng.PhaseDomains) / float64(c.eng.Phases)
	}
	m["sim.mean_phase_width"] = metric{width, "domains"}
	n("interconnect.messages", c.messages)
	n("popcorn.dsm_page_requests", c.dsmPageRequests)
	n("stramash.remote_pt_writes", c.remotePTWrites)
	n("net.tx_frames", c.txFrames)
	n("net.retransmits", c.retransmits)
	n("redisapp.worker_ops", c.workerOps)
	n("redisapp.futex_waits", c.futexWaits)
	n("redisapp.aof_fsync_batches", c.fsyncBatches)
	n("vfs.writebacks", c.writebacks)
	n("vfs.invalidations", c.invalidations)
}
