package redisapp

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
)

func newTestCluster(t testing.TB, os machine.OSKind, model mem.Model, machines int) *machine.Cluster {
	t.Helper()
	cfgs := make([]machine.Config, machines)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: model, OS: os}
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

func quickTraffic() TrafficParams {
	return TrafficParams{
		Requests: 120, Clients: 16, PayloadBytes: 256, Keys: 32,
		ZipfS: 1.0, InterArrival: 1500, SetEvery: 10, Seed: 7,
	}
}

// TestClusterBenchServes drives the full path — generator on machine 0,
// two servers — and checks conservation: every request sent is served and
// answered, with no misses (GETs hit the pre-populated keyspace).
func TestClusterBenchServes(t *testing.T) {
	cl := newTestCluster(t, machine.StramashOS, mem.Shared, 3)
	p := quickTraffic()
	r, err := ClusterBench(cl, p)
	if err != nil {
		t.Fatalf("ClusterBench: %v", err)
	}
	if r.Traffic.Done != p.Requests || r.Traffic.Sent != p.Requests {
		t.Fatalf("sent %d done %d, want %d", r.Traffic.Sent, r.Traffic.Done, p.Requests)
	}
	if r.Traffic.Misses != 0 {
		t.Fatalf("unexpected misses: %d", r.Traffic.Misses)
	}
	total := 0
	for s, st := range r.PerServer {
		if st.Served == 0 {
			t.Fatalf("server %d served nothing", s)
		}
		total += st.Served
	}
	if total != p.Requests {
		t.Fatalf("servers served %d, want %d", total, p.Requests)
	}
	if r.Traffic.P50 <= 0 || r.Traffic.P99 < r.Traffic.P50 {
		t.Fatalf("implausible latency percentiles p50=%d p99=%d", r.Traffic.P50, r.Traffic.P99)
	}
	for m := 0; m < 3; m++ {
		ns := cl.NICStats(m)
		if ns.TxFrames == 0 || ns.RxFrames == 0 {
			t.Fatalf("machine %d NIC idle: %+v", m, ns)
		}
	}
}

// TestClusterBenchFusedPopcornDigest is the cross-personality content
// check: the fused and multiple-kernel clusters must serve byte-identical
// responses (equal digests) for the same traffic.
func TestClusterBenchFusedPopcornDigest(t *testing.T) {
	p := quickTraffic()
	fused, err := ClusterBench(newTestCluster(t, machine.StramashOS, mem.Shared, 3), p)
	if err != nil {
		t.Fatalf("fused: %v", err)
	}
	pop, err := ClusterBench(newTestCluster(t, machine.PopcornSHM, mem.Separated, 3), p)
	if err != nil {
		t.Fatalf("popcorn: %v", err)
	}
	if fused.Traffic.Digest != pop.Traffic.Digest {
		t.Fatalf("digest mismatch: fused %x popcorn %x", fused.Traffic.Digest, pop.Traffic.Digest)
	}
	if fused.Traffic.Done != pop.Traffic.Done {
		t.Fatalf("done mismatch: fused %d popcorn %d", fused.Traffic.Done, pop.Traffic.Done)
	}
}

// BenchmarkClusterBench measures host wall time for one ClusterBench run
// at 1, 2 and 4 server machines. ServerCompute gives every request a real
// application body, so widening the cluster adds per-machine work rather
// than pure transport.
func BenchmarkClusterBench(b *testing.B) {
	p := TrafficParams{
		Requests: 240, Clients: 32, PayloadBytes: 512, Keys: 32,
		ZipfS: 1.0, InterArrival: 900, SetEvery: 10, Seed: 7,
		ServerCompute: 20000,
	}
	for _, servers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ClusterBench(newTestCluster(b, machine.StramashOS, mem.Shared, servers+1), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rawReqHdr and rawRespHdr build headers with arbitrary field values,
// bypassing the codec's encoders.
func rawReqHdr(cmd byte, klen, vlen uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte{cmd}, klen), vlen)
}

func rawRespHdr(status byte, plen uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{status}, plen)
}

// TestDecodeRequestRejectsCorruptHeaders runs the same good and corrupt
// request and response headers through every framing built on the codec:
// the socket stream, the AOF, the production worker rings and the Figure
// 14 RX slot. Each must accept the good message and reject every corrupt
// header before it reads a body.
func TestDecodeRequestRejectsCorruptHeaders(t *testing.T) {
	goodReq := appendRequest(nil, CmdSet, []byte("k"), []byte("v"))
	goodResp := appendResponse(nil, 1, []byte("v"))
	badReqs := []struct {
		name string
		hdr  []byte
	}{
		{"cmd 0", rawReqHdr(0, 1, 0)},
		{"cmd 9", rawReqHdr(9, 1, 0)},
		{"klen 0", rawReqHdr(1, 0, 0)},
		{"klen 513", rawReqHdr(1, maxNetKey+1, 0)},
		{"vlen 8193", rawReqHdr(2, 1, maxNetVal+1)},
	}
	badResps := []struct {
		name string
		hdr  []byte
	}{
		{"status 2", rawRespHdr(2, 0)},
		{"plen 8193", rawRespHdr(1, maxNetVal+1)},
	}
	seq := binary.LittleEndian.AppendUint64(nil, 42)

	m := newM(t, machine.VanillaOS)
	_, err := m.RunSingle("framings", mem.NodeX86, func(task *kernel.Task) error {
		ring, err := task.Proc.MmapAligned(prodRingCtl+prodSlotCap, 2<<20, kernel.VMARead|kernel.VMAWrite, "ring")
		if err != nil {
			return err
		}
		slot := ring + prodRingCtl
		// load writes msg at the slot and publishes one entry at tail 0.
		load := func(msg []byte) error {
			if err := task.WriteBytes(slot, msg); err != nil {
				return err
			}
			if err := task.Store(ring, 8, 1); err != nil {
				return err
			}
			return task.Store(ring+64, 8, 0)
		}
		reqFramings := []struct {
			name   string
			decode func(msg []byte) (bool, error)
		}{
			{"stream", func(msg []byte) (bool, error) {
				_, _, _, _, ok, err := decodeRequest(msg)
				return ok, err
			}},
			{"aof", func(msg []byte) (bool, error) {
				// len matches what the header declares, so only the
				// header's own bounds can reject the record.
				n := reqHdr + binary.LittleEndian.Uint32(msg[1:5]) + binary.LittleEndian.Uint32(msg[5:9])
				rec := binary.LittleEndian.AppendUint32(nil, n)
				_, _, _, _, ok, err := decodeAOFRecord(append(rec, msg...))
				return ok, err
			}},
			{"prod slot", func(msg []byte) (bool, error) {
				if err := load(append(seq, msg...)); err != nil {
					return false, err
				}
				_, _, _, _, err := prodRingConsume(task, ring, 0)
				return true, err
			}},
			{"fig14 slot", func(msg []byte) (bool, error) {
				if err := task.WriteBytes(slot, msg); err != nil {
					return false, err
				}
				_, _, _, err := readRXSlot(task, slot)
				return true, err
			}},
		}
		respFramings := []struct {
			name   string
			decode func(msg []byte) (bool, error)
		}{
			{"stream", func(msg []byte) (bool, error) {
				_, _, _, ok, err := decodeResponse(msg)
				return ok, err
			}},
			{"prod slot", func(msg []byte) (bool, error) {
				if err := load(append(seq, msg...)); err != nil {
					return false, err
				}
				_, _, _, ok, err := prodRingPop(task, ring)
				return ok, err
			}},
		}
		for _, f := range reqFramings {
			if ok, err := f.decode(goodReq); !ok || err != nil {
				t.Errorf("%s: good request not decoded: ok=%v err=%v", f.name, ok, err)
			}
			for _, b := range badReqs {
				if _, err := f.decode(b.hdr); err == nil {
					t.Errorf("%s: corrupt request header (%s) accepted", f.name, b.name)
				}
			}
		}
		for _, f := range respFramings {
			if ok, err := f.decode(goodResp); !ok || err != nil {
				t.Errorf("%s: good response not decoded: ok=%v err=%v", f.name, ok, err)
			}
			for _, b := range badResps {
				if _, err := f.decode(b.hdr); err == nil {
					t.Errorf("%s: corrupt response header (%s) accepted", f.name, b.name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ok, err := decodeRequest(goodReq[:5]); err != nil || ok {
		t.Fatalf("truncated request should want more bytes: ok=%v err=%v", ok, err)
	}
	if _, _, _, ok, err := decodeResponse(goodResp[:3]); err != nil || ok {
		t.Fatalf("truncated response should want more bytes: ok=%v err=%v", ok, err)
	}
}
