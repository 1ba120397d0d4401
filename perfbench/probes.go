package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/pgtable"
	"repro/internal/redisapp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// A probe measures one layer from outside: it calls the layer's public
// function in a loop with inputs shaped like the workloads', and verifies
// its own result, so a layer cannot look faster by doing less.
type probe struct {
	name string // cost metric; its unit is the "_ns" or "_ms" in the name
	n    int    // operations per repetition
	// run performs n operations, timing only the measured calls through
	// mt, and returns an error if the layer's result is wrong.
	run func(n int, mt *meter) error
}

// unit is the probe's cost unit, "ms" or "ns".
func (p probe) unit() string {
	if strings.Contains(p.name, "_ms") {
		return "ms"
	}
	return "ns"
}

// allocsName names the probe's allocs/op metric: the cost metric's name
// with its unit replaced, as in cache.access_allocs.l1_hit.
func (p probe) allocsName() string {
	return strings.Replace(p.name, "_"+p.unit(), "_allocs", 1)
}

// probeReps is how many times each probe repeats; the median is reported.
const probeReps = 3

// meter accumulates the host time and heap allocations of measured calls.
type meter struct {
	d       time.Duration
	mallocs uint64
}

// time runs f as measured work.
func (mt *meter) time(f func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	mt.d += time.Since(t0)
	runtime.ReadMemStats(&b)
	mt.mallocs += b.Mallocs - a.Mallocs
}

// runProbe runs p probeReps times and adds its median cost per operation
// and allocations per operation to m.
func runProbe(p probe, m map[string]metric) error {
	costs := make([]float64, 0, probeReps)
	allocs := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		mt := &meter{}
		if err := p.run(p.n, mt); err != nil {
			return err
		}
		per := float64(mt.d.Nanoseconds()) / float64(p.n)
		if p.unit() == "ms" {
			per /= 1e6
		}
		costs = append(costs, per)
		allocs = append(allocs, float64(mt.mallocs)/float64(p.n))
	}
	m[p.name] = metric{median(costs), p.unit()}
	m[p.allocsName()] = metric{median(allocs), "allocs/op"}
	return nil
}

// runProbesOnly runs one probe by name (or every probe) and prints its
// metrics; it returns the process exit code.
func runProbesOnly(name string) int {
	m := make(map[string]metric)
	found := false
	for _, p := range probes() {
		if name != "all" && p.name != name {
			continue
		}
		found = true
		if err := runProbe(p, m); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: FAILED: %v\n", p.name, err)
			return 1
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "perfbench: unknown probe %q; probes are:\n", name)
		for _, p := range probes() {
			fmt.Fprintln(os.Stderr, "  "+p.name)
		}
		return 2
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	out, _ := json.Marshal(m)
	fmt.Println(string(out))
	return 0
}

// probes lists every layer probe in layer order.
func probes() []probe {
	return []probe{
		{"cache.access_ns.l1_hit", 1_000_000, probeL1Hit},
		{"cache.access_ns.l3_miss", 200_000, probeL3Miss},
		{"cache.access_ns.snoop", 500_000, probeSnoop},
		{"kernel.load_ns.tlb_hit", 200_000, probeLoad},
		{"kernel.store_ns.tlb_hit", 200_000, probeStore},
		{"kernel.fault_ns.demand_zero", 2_000, probeDemandZero},
		{"mem.rw_ns", 1_000_000, probeMemRW},
		{"sim.handoff_ns", 50_000, probeHandoff},
		{"sim.block_wake_ns", 50_000, probeBlockWake},
		{"interconnect.ring_ns", 50_000, probeRing},
		{"interconnect.rpc_ns", 10_000, probeRPC},
		{"net.sock_roundtrip_ns", 1_000, probeSockRoundtrip},
		{"redisapp.exec_ns.get.sharded", 4_000, probeExec(redisapp.KSSharded, redisapp.CmdGet)},
		{"redisapp.exec_ns.set.sharded", 4_000, probeExec(redisapp.KSSharded, redisapp.CmdSet)},
		{"redisapp.exec_ns.get.locked", 4_000, probeExec(redisapp.KSLocked, redisapp.CmdGet)},
		{"redisapp.exec_ns.set.locked", 4_000, probeExec(redisapp.KSLocked, redisapp.CmdSet)},
		{"redisapp.aof_replay_ns_per_record", 10, probeAOFReplay},
		{"vfs.append_ns.fused", 2_000, probeAppend(vfs.RegimeFused)},
		{"vfs.append_ns.popcorn", 2_000, probeAppend(vfs.RegimePopcorn)},
		{"vfs.fsync_ns", 300, probeFsync},
		{"cap.check_ns", 2_000_000, probeCapCheck},
		{"kernel.open_close_ns.root", 3_000, probeOpenClose("")},
		{"kernel.open_close_ns.tenant", 3_000, probeOpenClose("t0")},
		{"trace.emit_ns", 200_000, probeEmit},
		{"machine.boot_ms", 5, probeBoot},
		{"machine.cluster_boot_ms", 5, probeClusterBoot},
	}
}

// newHierarchy is a bare cache model with the default geometry.
func newHierarchy(model mem.Model) *cache.Hierarchy {
	layout := mem.DefaultLayout(model)
	return cache.NewHierarchy(cache.DefaultConfig(model), &layout)
}

func probeL1Hit(n int, mt *meter) error {
	h := newHierarchy(mem.Separated)
	h.Access(mem.NodeX86, 0, cache.Read, 0x1000, 8)
	before := h.Stats(mem.NodeX86)
	mt.time(func() {
		for i := 0; i < n; i++ {
			h.Access(mem.NodeX86, 0, cache.Read, 0x1000, 8)
		}
	})
	after := h.Stats(mem.NodeX86)
	if hits := after.L1DHits - before.L1DHits; hits != int64(n) {
		return fmt.Errorf("%d L1D hits, want %d", hits, n)
	}
	return nil
}

// missStride aliases every level of the default geometry into one set,
// so 32 strided lines thrash the 16-way L3.
const missStride = 4096 * mem.LineSize

func probeL3Miss(n int, mt *meter) error {
	h := newHierarchy(mem.Separated)
	for i := 0; i < 32; i++ {
		h.Access(mem.NodeX86, 0, cache.Read, mem.PhysAddr(i)*missStride, 8)
	}
	before := h.Stats(mem.NodeX86)
	mt.time(func() {
		for i := 0; i < n; i++ {
			h.Access(mem.NodeX86, 0, cache.Read, mem.PhysAddr(i%32)*missStride, 8)
		}
	})
	after := h.Stats(mem.NodeX86)
	if acc, hits := after.L3Accesses-before.L3Accesses, after.L3Hits-before.L3Hits; acc != int64(n) || hits != 0 {
		return fmt.Errorf("%d L3 accesses with %d hits, want %d misses", acc, hits, n)
	}
	return nil
}

func probeSnoop(n int, mt *meter) error {
	h := newHierarchy(mem.Separated)
	h.Access(mem.NodeArm, 0, cache.Write, 0x2000, 8)
	snoops := func() int64 {
		return h.Stats(mem.NodeX86).SnoopInvalidations + h.Stats(mem.NodeArm).SnoopInvalidations
	}
	before := snoops()
	mt.time(func() {
		for i := 0; i < n; i++ {
			h.Access(mem.NodeID(i&1), 0, cache.Write, 0x2000, 8)
		}
	})
	if got := snoops() - before; got != int64(n) {
		return fmt.Errorf("%d snoop invalidations, want %d (one per cross-node write)", got, n)
	}
	return nil
}

// onTask runs body as a task on a fresh machine built from cfg.
func onTask(cfg machine.Config, body func(t *kernel.Task) error) error {
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	_, err = m.RunSingle("probe", mem.NodeX86, body)
	return err
}

var fused = machine.Config{Model: mem.Shared, OS: machine.StramashOS}

// mapped returns a task-mapped, faulted-in page holding 8 known words.
func mapped(t *kernel.Task) (pgtable.VirtAddr, error) {
	va, err := t.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "probe")
	if err != nil {
		return 0, err
	}
	for w := 0; w < 8; w++ {
		if err := t.Store(va+pgtable.VirtAddr(8*w), 8, uint64(w+1)); err != nil {
			return 0, err
		}
	}
	return va, nil
}

func probeLoad(n int, mt *meter) error {
	return onTask(fused, func(t *kernel.Task) error {
		va, err := mapped(t)
		if err != nil {
			return err
		}
		misses := t.Stats.TLBMisses
		var sum uint64
		var lerr error
		mt.time(func() {
			for i := 0; i < n && lerr == nil; i++ {
				var v uint64
				v, lerr = t.Load(va+pgtable.VirtAddr(8*(i&7)), 8)
				sum += v
			}
		})
		if lerr != nil {
			return lerr
		}
		want := uint64(n/8) * 36 // 1+...+8 per round of 8
		for i := n / 8 * 8; i < n; i++ {
			want += uint64(i&7) + 1
		}
		if sum != want || t.Stats.TLBMisses != misses {
			return fmt.Errorf("loads summed %d with %d TLB misses, want %d with none", sum, t.Stats.TLBMisses-misses, want)
		}
		return nil
	})
}

func probeStore(n int, mt *meter) error {
	return onTask(fused, func(t *kernel.Task) error {
		va, err := mapped(t)
		if err != nil {
			return err
		}
		misses := t.Stats.TLBMisses
		var serr error
		mt.time(func() {
			for i := 0; i < n && serr == nil; i++ {
				serr = t.Store(va+pgtable.VirtAddr(8*(i&7)), 8, uint64(i))
			}
		})
		if serr != nil {
			return serr
		}
		last := n - 1
		v, err := t.Load(va+pgtable.VirtAddr(8*(last&7)), 8)
		if err != nil {
			return err
		}
		if v != uint64(last) || t.Stats.TLBMisses != misses {
			return fmt.Errorf("last store read back %d with %d TLB misses, want %d with none", v, t.Stats.TLBMisses-misses, last)
		}
		return nil
	})
}

func probeDemandZero(n int, mt *meter) error {
	return onTask(fused, func(t *kernel.Task) error {
		va, err := t.Mmap(uint64(n)*mem.PageSize, kernel.VMARead|kernel.VMAWrite, "probe")
		if err != nil {
			return err
		}
		faults := t.Stats.ReadFaults
		var sum uint64
		var lerr error
		mt.time(func() {
			for i := 0; i < n && lerr == nil; i++ {
				var v uint64
				v, lerr = t.Load(va+pgtable.VirtAddr(i)*mem.PageSize, 8)
				sum += v
			}
		})
		if lerr != nil {
			return lerr
		}
		if got := t.Stats.ReadFaults - faults; sum != 0 || got != int64(n) {
			return fmt.Errorf("%d read faults reading %d, want %d zero-filled pages", got, sum, n)
		}
		return nil
	})
}

// probeMemRW writes and reads back one word at a time across a 64 KiB
// span of physical memory.
func probeMemRW(n int, mt *meter) error {
	p := mem.NewPhysical(mem.DefaultLayout(mem.Separated))
	p.WriteUint(0x1000, 8, 1)
	var got, want uint64
	mt.time(func() {
		for i := 0; i < n; i++ {
			a := 0x1000 + mem.PhysAddr((i&8191)*8)
			p.WriteUint(a, 8, uint64(i))
			got += p.ReadUint(a, 8)
		}
	})
	for i := 0; i < n; i++ {
		want += uint64(i)
	}
	if got != want {
		return fmt.Errorf("read back sum %d, wrote %d", got, want)
	}
	return nil
}

// probeHandoff alternates two simulated threads at every YieldPoint; it
// reports the cost of one hand-off.
func probeHandoff(n int, mt *meter) error {
	e := sim.NewEngine()
	var yields [2]int
	for k := 0; k < 2; k++ {
		k := k
		e.Spawn(fmt.Sprintf("yield%d", k), 0, func(t *sim.Thread) {
			for i := 0; i < n; i++ {
				t.Advance(1)
				t.YieldPoint()
				yields[k]++
			}
		})
	}
	var err error
	mt.time(func() { err = e.Run() })
	mt.mallocs /= 2
	mt.d /= 2
	if err != nil {
		return err
	}
	if yields[0] != n || yields[1] != n || e.Stats.SerialSegments < int64(2*n) {
		return fmt.Errorf("yields %v over %d segments, want %d each", yields, e.Stats.SerialSegments, n)
	}
	return nil
}

// probeBlockWake ping-pongs two threads through Block and Wake; it
// reports the cost of one block-and-wake.
func probeBlockWake(n int, mt *meter) error {
	e := sim.NewEngine()
	var a, b *sim.Thread
	var wakes [2]int
	a = e.Spawn("ping", 0, func(t *sim.Thread) {
		for i := 0; i < n; i++ {
			e.Wake(b, t.Now()+1)
			wakes[0]++
			t.Block("ping")
		}
	})
	b = e.Spawn("pong", 0, func(t *sim.Thread) {
		for i := 0; i < n; i++ {
			t.Block("pong")
			e.Wake(a, t.Now()+1)
			wakes[1]++
		}
	})
	var err error
	mt.time(func() { err = e.Run() })
	mt.mallocs /= 2
	mt.d /= 2
	if err != nil {
		return err
	}
	if wakes[0] != n || wakes[1] != n {
		return fmt.Errorf("wakes %v, want %d each", wakes, n)
	}
	return nil
}

// onPorts runs body on a bare platform with an x86 and an Arm port.
func onPorts(body func(x86, arm *hw.Port) error) error {
	plat := hw.NewPlatform(hw.DefaultConfig(mem.Shared))
	var err error
	plat.Engine.Spawn("probe", 0, func(th *sim.Thread) {
		err = body(plat.NewPort(mem.NodeX86, 0, th), plat.NewPort(mem.NodeArm, 0, th))
	})
	if rerr := plat.Engine.Run(); rerr != nil {
		return rerr
	}
	return err
}

// probeRing sends on x86 and receives on Arm, as the messaging layer does.
func probeRing(n int, mt *meter) error {
	return onPorts(func(x86, arm *hw.Port) error {
		r := interconnect.NewRing(x86, 0x20_0000, 64, 256)
		msg := bytes.Repeat([]byte{0xa5}, 128)
		bad := 0
		mt.time(func() {
			for i := 0; i < n; i++ {
				msg[0] = byte(i)
				if !r.Send(x86, msg) {
					bad++
					continue
				}
				got, ok := r.Recv(arm)
				if !ok || !bytes.Equal(got, msg) {
					bad++
				}
			}
		})
		if bad != 0 {
			return fmt.Errorf("%d of %d messages lost or corrupted", bad, n)
		}
		return nil
	})
}

func probeRPC(n int, mt *meter) error {
	m, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.PopcornSHM})
	if err != nil {
		return err
	}
	echo := func(_ *hw.Port, req []byte) []byte { return req }
	_, err = m.RunSingle("probe", mem.NodeX86, func(t *kernel.Task) error {
		msgs := m.Messages()
		req := bytes.Repeat([]byte{0x5a}, 64)
		bad := 0
		mt.time(func() {
			for i := 0; i < n; i++ {
				req[0] = byte(i)
				if !bytes.Equal(m.Msgr.RPC(t.Port, echo, req), req) {
					bad++
				}
			}
		})
		if got := m.Messages() - msgs; bad != 0 || got != int64(2*n) {
			return fmt.Errorf("%d bad replies over %d messages, want none over %d", bad, got, 2*n)
		}
		return nil
	})
	return err
}

// probeSockRoundtrip echoes 64-byte messages between two machines of a
// cluster over sockets: SendSock and RecvSock on each side per round trip.
func probeSockRoundtrip(n int, mt *meter) error {
	cl, err := machine.NewCluster([]machine.Config{fused, fused}, net.DefaultFabricConfig())
	if err != nil {
		return err
	}
	const port, size = 7000, 64
	recvFull := func(t *kernel.Task, fd int) ([]byte, error) {
		var got []byte
		for len(got) < size {
			b, err := t.RecvSock(fd, size-len(got))
			if err != nil {
				return nil, err
			}
			if len(b) == 0 {
				return nil, fmt.Errorf("connection closed after %d bytes", len(got))
			}
			got = append(got, b...)
		}
		return got, nil
	}
	bad := 0
	server := machine.ClusterTask{Mach: 1, TaskSpec: machine.TaskSpec{Name: "echo", Origin: mem.NodeX86,
		Body: func(t *kernel.Task) error {
			lfd, err := t.SocketListen(port)
			if err != nil {
				return err
			}
			fd, err := t.SocketAccept(lfd)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				b, err := recvFull(t, fd)
				if err != nil {
					return err
				}
				if _, err := t.SendSock(fd, b); err != nil {
					return err
				}
			}
			return t.CloseSock(fd)
		}}}
	client := machine.ClusterTask{Mach: 0, TaskSpec: machine.TaskSpec{Name: "ping", Origin: mem.NodeX86, Start: 2000,
		Body: func(t *kernel.Task) error {
			fd, err := t.SocketConnect(net.Addr{Mach: 1, Port: port})
			if err != nil {
				return err
			}
			msg := bytes.Repeat([]byte{0x3c}, size)
			var rerr error
			mt.time(func() {
				for i := 0; i < n && rerr == nil; i++ {
					msg[0] = byte(i)
					if _, rerr = t.SendSock(fd, msg); rerr != nil {
						break
					}
					var got []byte
					if got, rerr = recvFull(t, fd); rerr == nil && !bytes.Equal(got, msg) {
						bad++
					}
				}
			})
			if rerr != nil {
				return rerr
			}
			return t.CloseSock(fd)
		}}}
	if _, err := cl.RunTasks(server, client); err != nil {
		return err
	}
	if bad != 0 {
		return fmt.Errorf("%d of %d echoes corrupted", bad, n)
	}
	return nil
}

// probeExec runs one command kind through Keyspace.Exec on a populated
// keyspace of 32 keys with 1 KiB values, the prod-aof traffic shape.
func probeExec(kind redisapp.KeyspaceKind, cmd redisapp.Command) func(int, *meter) error {
	return func(n int, mt *meter) error {
		return onTask(fused, func(t *kernel.Task) error {
			var ks redisapp.Keyspace
			if kind == redisapp.KSSharded {
				s, err := redisapp.NewStoreSharded(t, 1, 16<<20, 64)
				if err != nil {
					return err
				}
				ks = s
			} else {
				arena, err := redisapp.NewSharedArena(t, 16<<20, "probe")
				if err != nil {
					return err
				}
				store, err := redisapp.NewStore(t, arena, 256)
				if err != nil {
					return err
				}
				if ks, err = redisapp.NewStoreLocked(t, store, 8); err != nil {
					return err
				}
			}
			const keys = 32
			key := func(i int) []byte { return []byte(fmt.Sprintf("key:%d", i%keys)) }
			val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%keys)}, 1024) }
			for i := 0; i < keys; i++ {
				if _, _, err := ks.Exec(t, 0, redisapp.CmdSet, key(i), val(i)); err != nil {
					return err
				}
			}
			bad := 0
			var xerr error
			mt.time(func() {
				for i := 0; i < n && xerr == nil; i++ {
					var v []byte
					if cmd == redisapp.CmdSet {
						v = val(i)
					}
					var out []byte
					var miss int
					out, miss, xerr = ks.Exec(t, 0, cmd, key(i), v)
					if miss != 0 || (cmd == redisapp.CmdGet && !bytes.Equal(out, val(i))) {
						bad++
					}
				}
			})
			if xerr != nil {
				return xerr
			}
			if bad != 0 {
				return fmt.Errorf("%d of %d %v results missed or differed", bad, n, cmd)
			}
			return nil
		})
	}
}

// probeAOFReplay builds an AOF with one quick production-redis run, then
// replays it n times into fresh stores with RecoverAOF; the cost is per
// replayed record.
func probeAOFReplay(n int, mt *meter) error {
	cl, err := machine.NewCluster([]machine.Config{fused,
		{Model: mem.Shared, OS: machine.StramashOS, FileCache: vfs.RegimeFused}}, net.DefaultFabricConfig())
	if err != nil {
		return err
	}
	p := prodTraffic(defaultSeed)
	if _, err := redisapp.ClusterProdBench(cl, p, redisapp.ProdParams{Kind: redisapp.KSSharded, Cores: 1}); err != nil {
		return err
	}
	want := p.Keys + (p.Requests+p.SetEvery-1)/p.SetEvery
	records := 0
	_, err = cl.RunTasks(machine.ClusterTask{Mach: 1, TaskSpec: machine.TaskSpec{Name: "replay", Origin: mem.NodeX86,
		Body: func(t *kernel.Task) error {
			for i := 0; i < n; i++ {
				arena, err := redisapp.NewArena(t, 8<<20, fmt.Sprintf("replay%d", i))
				if err != nil {
					return err
				}
				store, err := redisapp.NewStore(t, arena, 64)
				if err != nil {
					return err
				}
				var applied int
				mt.time(func() { applied, err = redisapp.RecoverAOF(t, "/redis.aof", store) })
				if err != nil {
					return err
				}
				if applied != want {
					return fmt.Errorf("replayed %d records, want %d", applied, want)
				}
				records += applied
			}
			return nil
		}}})
	if err != nil {
		return err
	}
	// Report per record, not per replay.
	mt.d = mt.d * time.Duration(n) / time.Duration(records)
	mt.mallocs = mt.mallocs * uint64(n) / uint64(records)
	return nil
}

// probeAppend appends 1 KiB records to one file, as the AOF does.
func probeAppend(regime vfs.Regime) func(int, *meter) error {
	return func(n int, mt *meter) error {
		cfg := fused
		cfg.FileCache = regime
		return onTask(cfg, func(t *kernel.Task) error {
			fd, err := t.OpenFile("/probe.aof", vfs.OCreate|vfs.OWrite|vfs.OAppend|vfs.ORead)
			if err != nil {
				return err
			}
			rec := bytes.Repeat([]byte{0x42}, 1024)
			var werr error
			mt.time(func() {
				for i := 0; i < n && werr == nil; i++ {
					rec[0] = byte(i)
					var w int
					if w, werr = t.WriteFile(fd, rec); werr == nil && w != len(rec) {
						werr = fmt.Errorf("short write %d", w)
					}
				}
			})
			if werr != nil {
				return werr
			}
			return checkTail(t, fd, int64(n)*1024, rec)
		})
	}
}

// checkTail verifies the file's size and that its last bytes are last.
func checkTail(t *kernel.Task, fd int, size int64, last []byte) error {
	got, err := t.FileSize(fd)
	if err != nil {
		return err
	}
	if got != size {
		return fmt.Errorf("file holds %d bytes, wrote %d", got, size)
	}
	buf := make([]byte, len(last))
	if _, err := t.ReadFileAt(fd, buf, size-int64(len(last))); err != nil {
		return err
	}
	if !bytes.Equal(buf, last) {
		return fmt.Errorf("last record read back differs from the one written")
	}
	return nil
}

// probeFsync appends 1 KiB and fsyncs, in the popcorn regime where the
// flush writes dirty pages back; only SyncFile is measured.
func probeFsync(n int, mt *meter) error {
	cfg := fused
	cfg.FileCache = vfs.RegimePopcorn
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	_, err = m.RunSingle("probe", mem.NodeX86, func(t *kernel.Task) error {
		fd, err := t.OpenFile("/probe.aof", vfs.OCreate|vfs.OWrite|vfs.OAppend|vfs.ORead)
		if err != nil {
			return err
		}
		rec := bytes.Repeat([]byte{0x17}, 1024)
		syncs := m.FileStats().Syncs[0]
		for i := 0; i < n; i++ {
			rec[0] = byte(i)
			if _, err := t.WriteFile(fd, rec); err != nil {
				return err
			}
			mt.time(func() { err = t.SyncFile(fd) })
			if err != nil {
				return err
			}
		}
		if got := m.FileStats().Syncs[0] - syncs; got != int64(n) {
			return fmt.Errorf("%d syncs counted, want %d", got, n)
		}
		return checkTail(t, fd, int64(n)*1024, rec)
	})
	return err
}

func probeCapCheck(n int, mt *meter) error {
	ns := cap.NewNamespace()
	ten := ns.NewTenant("probe", cap.Budget{Frames: 1, CacheFrames: 1, CPUShare: 100})
	id := ns.Table.Grant(ten, cap.File, "/probe")
	if ns.Table.Check(ten, id, cap.Sock, "send") == nil {
		return fmt.Errorf("a file capability authorised a socket operation")
	}
	denied := 0
	mt.time(func() {
		for i := 0; i < n; i++ {
			if ns.Table.Check(ten, id, cap.File, "open") != nil {
				denied++
			}
		}
	})
	if denied != 0 {
		return fmt.Errorf("%d of %d checks of a live grant denied", denied, n)
	}
	return nil
}

// probeOpenClose opens and closes one file as a root task (tenant "") or
// as a tenant's task, through the capability gate.
func probeOpenClose(tenant string) func(int, *meter) error {
	return func(n int, mt *meter) error {
		cfg := fused
		cfg.Tenants = []machine.TenantSpec{{Name: "t0",
			Budget: cap.Budget{Frames: 4096, CacheFrames: 4096, CPUShare: 100},
			Grants: []string{"file:/t0", "futex", "vma"}}}
		m, err := machine.New(cfg)
		if err != nil {
			return err
		}
		_, err = m.RunTasks(machine.TaskSpec{Name: "probe", Origin: mem.NodeX86, Tenant: tenant,
			Body: func(t *kernel.Task) error {
				fd, err := t.OpenFile("/t0.dat", vfs.OCreate|vfs.ORDWR)
				if err != nil {
					return err
				}
				if err := t.CloseFile(fd); err != nil {
					return err
				}
				mt.time(func() {
					for i := 0; i < n && err == nil; i++ {
						if fd, err = t.OpenFile("/t0.dat", vfs.ORead); err == nil {
							err = t.CloseFile(fd)
						}
					}
				})
				return err
			}})
		return err
	}
}

func probeEmit(n int, mt *meter) error {
	b := trace.NewBuffer()
	mt.time(func() {
		for i := 0; i < n; i++ {
			b.Emit(trace.Event{Cycle: int64(i), Kind: trace.KindRingEnqueue, Tid: 1, Arg: 64})
		}
	})
	if len(b.Events) != n || b.Events[n-1].Cycle != int64(n-1) {
		return fmt.Errorf("buffer holds %d events, want %d in order", len(b.Events), n)
	}
	return nil
}

func probeBoot(n int, mt *meter) error {
	var err error
	for i := 0; i < n && err == nil; i++ {
		var m *machine.Machine
		mt.time(func() { m, err = machine.New(fused) })
		if err == nil && (m.Msgr == nil || m.VFS() == nil) {
			err = fmt.Errorf("machine booted without messaging or VFS")
		}
	}
	return err
}

func probeClusterBoot(n int, mt *meter) error {
	var err error
	for i := 0; i < n && err == nil; i++ {
		var cl *machine.Cluster
		mt.time(func() { cl, err = machine.NewCluster([]machine.Config{fused, fused}, net.DefaultFabricConfig()) })
		if err == nil && (len(cl.Machines) != 2 || cl.Machines[1].NIC == nil) {
			err = fmt.Errorf("cluster booted without two networked machines")
		}
	}
	return err
}
