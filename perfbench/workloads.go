package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/npb"
	"repro/internal/redisapp"
	"repro/internal/vfs"
)

// The three workloads stress different layers, so an optimisation of
// one layer has a workload that exercises it and one that bypasses it:
//
//   - paper-quick is what a reproducer runs: the 16 paper specs at quick
//     scale, one after another. Its host time is the cache model, task
//     loads and stores and DSM faults; it touches neither net nor redisapp.
//   - prod-aof is write-heavy production redis: every other request is a
//     SET appended to the AOF through the VFS. Its host time is mostly
//     simulator hand-off between goroutines.
//   - cluster-get is read-mostly redis across 1, 2 and 4 server machines
//     without AOF: the only workload with many independent clock domains.
var workloads = []workload{
	{name: "paper-quick", plan: paperPlan, countCell: npbCountCell},
	{name: "prod-aof", plan: prodPlan},
	{name: "cluster-get", plan: clusterPlan},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// digestOf hashes the parts of an operation's output that must not move.
func digestOf(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// paperPlan runs the paper specs in experiments.All() order, as
// stramash-bench does. The specs take no seed, so the seed does not
// affect this workload.
func paperPlan(uint64) plan {
	var ops []op
	for _, s := range experiments.All() {
		s := s
		var res experiments.Result
		ops = append(ops, op{
			name: s.ID,
			run: func() error {
				var err error
				res, err = s.Run(experiments.Quick)
				return err
			},
			verify: func(*counts) (string, error) {
				if shape := res.ShapeErrors(); len(shape) != 0 {
					return "", fmt.Errorf("shape: %s", strings.Join(shape, "; "))
				}
				return digestOf(res.Name(), res.Render()), nil
			},
		})
	}
	return plan{boots: paperBoots(), ops: ops}
}

// paperBoots boots one machine of each personality and memory model the
// paper specs boot. Spec.Run boots its machines inside the timed section
// and does not expose them, so paper-quick's setup_s is this boot probe
// of the OS x model set, not the boots the specs perform (those count
// toward wall_s).
func paperBoots() []boot {
	var boots []boot
	for _, os := range []machine.OSKind{machine.VanillaOS, machine.PopcornTCP, machine.PopcornSHM, machine.StramashOS} {
		for _, model := range []mem.Model{mem.Shared, mem.Separated} {
			cfg := machine.Config{Model: model, OS: os}
			boots = append(boots, boot{fmt.Sprintf("%v/%v", os, model), func() error {
				_, err := machine.New(cfg)
				return err
			}})
		}
	}
	return boots
}

// npbCountCell runs the four NPB kernels with migration on the fused and
// the multiple-kernel personality — the Figure 9 cells that dominate the
// paper specs — on machines the benchmark boots itself, so their layer
// counters can be read.
func npbCountCell(c *counts) (time.Duration, error) {
	var wall time.Duration
	for _, cfg := range []machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS},
		{Model: mem.Separated, OS: machine.PopcornSHM},
	} {
		for _, name := range npb.Names() {
			m, err := machine.New(cfg)
			if err != nil {
				return wall, err
			}
			w, err := npb.New(name, npb.ClassT)
			if err != nil {
				return wall, err
			}
			t0 := time.Now()
			_, err = m.RunSingle(name, mem.NodeX86, func(t *kernel.Task) error { return w.Run(t, true) })
			wall += time.Since(t0)
			if err != nil {
				return wall, fmt.Errorf("%s on %v: %w", name, cfg.OS, err)
			}
			c.addMachine(m)
			c.addEngine(m.EngineStats())
		}
	}
	return wall, nil
}

// prodTraffic is the redisprod experiment's quick traffic shape (SET
// every 2nd request) with the benchmark's seed.
func prodTraffic(seed uint64) redisapp.TrafficParams {
	return redisapp.TrafficParams{
		Requests: 240, Clients: 16, PayloadBytes: 1024, Keys: 32,
		ZipfS: 1.4, InterArrival: 900, SetEvery: 2, Seed: seed,
	}
}

// prodLabel names one prod-aof cell.
func prodLabel(kind redisapp.KeyspaceKind, regime vfs.Regime, cores int) string {
	return fmt.Sprintf("%v/%v/%dc", kind, regime, cores)
}

// prodPlan is the production-redis grid {sharded, locked} x {fused,
// popcorn} x {1, 2, 4} cores, one cluster per cell.
func prodPlan(seed uint64) plan {
	p := prodTraffic(seed)
	var grid gridDigest
	var ops []op
	for _, kind := range []redisapp.KeyspaceKind{redisapp.KSSharded, redisapp.KSLocked} {
		for _, regime := range []vfs.Regime{vfs.RegimeFused, vfs.RegimePopcorn} {
			for _, cores := range []int{1, 2, 4} {
				kind, regime, cores := kind, regime, cores
				var cl *machine.Cluster
				var r redisapp.ProdClusterResult
				ops = append(ops, op{
					name: prodLabel(kind, regime, cores),
					boot: func() error {
						var err error
						cl, err = machine.NewCluster([]machine.Config{
							{Model: mem.Shared, OS: machine.StramashOS},
							{Model: mem.Shared, OS: machine.StramashOS, FileCache: regime,
								Cores: cores, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000},
						}, net.DefaultFabricConfig())
						return err
					},
					run: func() error {
						var err error
						r, err = redisapp.ClusterProdBench(cl, p, redisapp.ProdParams{Kind: kind, Cores: cores})
						return err
					},
					verify: func(c *counts) (string, error) {
						defer func() { cl = nil }()
						if err := checkProd(p, r.Traffic, r.PerServer[0]); err != nil {
							return "", err
						}
						if err := grid.same(r.Traffic.Digest); err != nil {
							return "", err
						}
						if c != nil {
							c.addCluster(cl)
							c.addProd(r.PerServer[0])
						}
						return prodDigest(r.Traffic, r.PerServer[0]), nil
					},
				})
			}
		}
	}
	return plan{ops: ops}
}

// checkProd is the per-cell gate of a production-redis run: every request
// sent and served once with no misses, worker ops summing to the request
// count, the AOF holding exactly populate plus one record per SET, and
// its replay reproducing the live keyspace.
func checkProd(p redisapp.TrafficParams, tr redisapp.TrafficResult, st redisapp.ProdStats) error {
	if tr.Sent != p.Requests || tr.Done != p.Requests || st.Served != p.Requests {
		return fmt.Errorf("sent %d done %d served %d, want %d", tr.Sent, tr.Done, st.Served, p.Requests)
	}
	if tr.Misses != 0 || st.Misses != 0 {
		return fmt.Errorf("%d client / %d server misses", tr.Misses, st.Misses)
	}
	var ops int64
	for _, w := range st.PerWorker {
		ops += w.Ops
	}
	if ops != int64(p.Requests) {
		return fmt.Errorf("worker ops sum to %d, want %d", ops, p.Requests)
	}
	if want := p.Keys + (p.Requests+p.SetEvery-1)/p.SetEvery; st.AOFRecords != want {
		return fmt.Errorf("AOF replayed %d records, want %d", st.AOFRecords, want)
	}
	if st.LiveDigest != st.ReplayDigest {
		return fmt.Errorf("AOF replay digest %x != live digest %x", st.ReplayDigest, st.LiveDigest)
	}
	return nil
}

// prodDigest covers the cell's simulated p50, p99 and elapsed cycles, its
// response digest and its persisted keyspace.
func prodDigest(tr redisapp.TrafficResult, st redisapp.ProdStats) string {
	return digestOf(fmt.Sprint(int64(tr.P50), int64(tr.P99), int64(tr.Elapsed)),
		fmt.Sprintf("%x %x %d", tr.Digest, st.LiveDigest, st.AOFRecords))
}

// clusterTraffic is the cluster experiment's full-scale traffic shape
// (one SET in ten, no AOF) with the request count raised so one pass
// lasts seconds, and the benchmark's seed.
func clusterTraffic(seed uint64) redisapp.TrafficParams {
	return redisapp.TrafficParams{
		Requests: 9600, Clients: 32, PayloadBytes: 1024, Keys: 64,
		ZipfS: 1.0, InterArrival: 900, SetEvery: 10, Seed: seed,
	}
}

// clusterOSes are the cluster grid's personalities.
var clusterOSes = []struct {
	os    machine.OSKind
	model mem.Model
}{
	{machine.StramashOS, mem.Shared},
	{machine.PopcornSHM, mem.Separated},
}

// clusterPlan is the cluster grid {Stramash/Shared, Popcorn-SHM/Separated}
// x {1, 2, 4} server machines plus the load generator's machine.
func clusterPlan(seed uint64) plan {
	p := clusterTraffic(seed)
	var grid gridDigest
	var ops []op
	for _, o := range clusterOSes {
		for _, servers := range []int{1, 2, 4} {
			o, servers := o, servers
			var cl *machine.Cluster
			var r redisapp.ClusterResult
			ops = append(ops, op{
				name: fmt.Sprintf("%v/%ds", o.os, servers),
				boot: func() error {
					cfgs := make([]machine.Config, servers+1)
					for i := range cfgs {
						cfgs[i] = machine.Config{Model: o.model, OS: o.os}
					}
					var err error
					cl, err = machine.NewCluster(cfgs, net.DefaultFabricConfig())
					return err
				},
				run: func() error {
					var err error
					r, err = redisapp.ClusterBench(cl, p)
					return err
				},
				verify: func(c *counts) (string, error) {
					defer func() { cl = nil }()
					if err := checkCluster(p, r); err != nil {
						return "", err
					}
					if err := grid.same(r.Traffic.Digest); err != nil {
						return "", err
					}
					if c != nil {
						c.addCluster(cl)
						for _, s := range r.PerServer {
							c.workerOps += int64(s.Served)
						}
					}
					return digestOf(fmt.Sprint(int64(r.Traffic.P50), int64(r.Traffic.P99), int64(r.Traffic.Elapsed)),
						fmt.Sprintf("%x", r.Traffic.Digest)), nil
				},
			})
		}
	}
	return plan{ops: ops}
}

// checkCluster is the per-cell gate of a cluster run: every request sent,
// answered and served exactly once, with no misses.
func checkCluster(p redisapp.TrafficParams, r redisapp.ClusterResult) error {
	if r.Traffic.Sent != p.Requests || r.Traffic.Done != p.Requests {
		return fmt.Errorf("sent %d done %d, want %d", r.Traffic.Sent, r.Traffic.Done, p.Requests)
	}
	served, misses := 0, r.Traffic.Misses
	for _, s := range r.PerServer {
		served += s.Served
		misses += s.Misses
	}
	if served != p.Requests {
		return fmt.Errorf("servers served %d, want %d", served, p.Requests)
	}
	if misses != 0 {
		return fmt.Errorf("%d misses against a pre-populated keyspace", misses)
	}
	return nil
}

// gridDigest holds the response digest every cell of one grid pass must
// share: the axes may move time, never content.
type gridDigest struct {
	set    bool
	digest uint64
}

func (g *gridDigest) same(d uint64) error {
	if !g.set {
		g.set, g.digest = true, d
		return nil
	}
	if d != g.digest {
		return fmt.Errorf("response digest %x differs from the grid's %x", d, g.digest)
	}
	return nil
}
