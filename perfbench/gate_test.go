package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/experiments"
)

// only narrows a workload's plan to the named operations.
func only(w workload, names ...string) workload {
	full := w.plan
	w.plan = func(seed uint64) plan {
		pl := full(seed)
		var ops []op
		for _, o := range pl.ops {
			if contains(names, o.name) {
				ops = append(ops, o)
			}
		}
		pl.ops = ops
		return pl
	}
	return w
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// TestCorruptedDigestCountsAsFailed feeds each kind of operation — a
// paper spec and a redis grid cell — an expected digest that cannot
// match, and checks that the operation counts as failed while the true
// recorded digest passes.
func TestCorruptedDigestCountsAsFailed(t *testing.T) {
	for _, tc := range []struct{ workload, op string }{
		{"paper-quick", "table4"},
		{"prod-aof", "sharded/fused/1c"},
	} {
		w := only(mustWorkload(t, tc.workload), tc.op)
		recorded := expectedDigests(tc.workload, defaultSeed)[tc.op]
		if recorded == "" {
			t.Fatalf("%s: no recorded digest for %s", tc.workload, tc.op)
		}
		for _, c := range []struct {
			digest     string
			wantFailed int
		}{{recorded, 0}, {"0123456789abcdef", 1}} {
			b := &bench{w: w, seed: defaultSeed, expect: map[string]string{tc.op: c.digest}}
			if _, err := b.pass(nil); err != nil {
				t.Fatal(err)
			}
			if b.attempted != 1 || b.failed != c.wantFailed {
				t.Errorf("%s %s with expected digest %s: attempted %d failed %d, want 1 and %d",
					tc.workload, tc.op, c.digest, b.attempted, b.failed, c.wantFailed)
			}
		}
	}
}

// TestUnrecordedSeedChecksPassAgainstPass checks the gate for a seed
// without recorded digests: a second pass must reproduce the first.
func TestUnrecordedSeedChecksPassAgainstPass(t *testing.T) {
	w := only(mustWorkload(t, "cluster-get"), "Stramash/1s")
	b := &bench{w: w, seed: 12345}
	if b.expect = expectedDigests(w.name, b.seed); b.expect != nil {
		t.Fatal("seed 12345 unexpectedly has recorded digests")
	}
	for i := 0; i < 2; i++ {
		if _, err := b.pass(nil); err != nil {
			t.Fatal(err)
		}
	}
	if b.attempted != 2 || b.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 2 and 0", b.attempted, b.failed)
	}
	b.observed["Stramash/1s"] = "0123456789abcdef"
	if _, err := b.pass(nil); err != nil {
		t.Fatal(err)
	}
	if b.failed != 1 {
		t.Fatalf("a pass that differs from the first counted %d failures, want 1", b.failed)
	}
}

// TestGatesPassOnBothSeeds runs one pass of every workload at the
// default and the held-out seed against the recorded digests.
func TestGatesPassOnBothSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			b := &bench{w: w, seed: seed, expect: expectedDigests(w.name, seed)}
			if b.expect == nil {
				t.Fatalf("%s: no recorded digests for seed %d", w.name, seed)
			}
			if _, err := b.pass(nil); err != nil {
				t.Fatal(err)
			}
			if b.failed != 0 || b.attempted != len(b.expect) {
				t.Errorf("%s seed %d: %d of %d operations failed (%d recorded)",
					w.name, seed, b.failed, b.attempted, len(b.expect))
			}
		}
	}
}

// TestProdDigestsMatchRedisprodExtra ties the recorded prod-aof digests
// at the default seed to the redisprod Extra experiment, which runs the
// same grid with the same traffic.
func TestProdDigestsMatchRedisprodExtra(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the redisprod grid")
	}
	res, err := experiments.Redisprod(experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedDigests("prod-aof", defaultSeed)
	rows := res.(*experiments.RedisprodResult).Rows
	if len(rows) != len(want) {
		t.Fatalf("redisprod has %d cells, %d recorded", len(rows), len(want))
	}
	for _, row := range rows {
		label := prodLabel(row.Kind, row.Regime, row.Cores)
		if got := prodDigest(row.Traffic, row.Server); got != want[label] {
			t.Errorf("%s: redisprod digest %s, recorded %s", label, got, want[label])
		}
	}
}

// TestProbeNamesDeclared checks every probe metric is declared in the
// repository's BENCHMARK.json with the unit the probe reports.
func TestProbeNamesDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to perfbench")
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, p := range probes() {
		if units[p.name] != p.unit() || units[p.allocsName()] != "allocs/op" {
			t.Errorf("probe %s: declared %q / %s %q, reports %s / allocs/op",
				p.name, units[p.name], p.allocsName(), units[p.allocsName()], p.unit())
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "repro/internal/sim.(*Thread).YieldPoint"}, "go_sched"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "go_sched"},
		{[]string{"runtime.mallocgc", "repro/internal/cache.(*Hierarchy).accessLine"}, "cache"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"repro/internal/npb.(*IS).Run"}, "other"},
		{[]string{"repro/internal/redisapp.prodRingPeek"}, "redisapp"},
		{[]string{"internal/runtime/atomic.(*UnsafePointer).Load", "runtime.mallocgc", "repro/internal/machine.New"}, "other"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.mallocgc", "repro/internal/vfs.(*FS).WriteFile"}, "vfs"},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

func TestSharesOfTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 40ms (4.00%)
-----------+-------------------------------------------------------
      30ms   repro/internal/cache.(*Hierarchy).entryFor
             repro/internal/cache.(*Hierarchy).Access
             repro/internal/npb.arr.set (inline)
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.notesleep
             runtime.stopm
-----------+-------------------------------------------------------
`
	shares, err := sharesOfTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	if shares["cache"] != 0.75 || shares["go_sched"] != 0.25 || shares["sim"] != 0 {
		t.Errorf("shares %v, want cache 0.75, go_sched 0.25", shares)
	}
	if _, err := sharesOfTraces("File: perfbench\n"); err == nil {
		t.Error("no samples: want an error")
	}
}
