package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// op is one operation of a workload: one experiment spec or one grid
// cell. An operation fails if it errors, misses a check, or produces a
// digest other than the recorded one.
type op struct {
	name string
	// boot builds the cell's machines. Its time counts toward setup_s, not
	// wall_s. nil for the paper specs, which boot inside Spec.Run.
	boot func() error
	// run is the timed section.
	run func() error
	// verify checks the finished run and returns its digest. When c is
	// non-nil it also adds the cell's layer counters to c.
	verify func(c *counts) (string, error)
}

// plan is one pass of a workload: its inputs, generated from the seed,
// and the operations that consume them in run order.
type plan struct {
	// boots, for a workload whose operations boot inside their timed
	// section, boot one machine of each kind those operations boot; their
	// time counts toward setup_s. They run once before every operation, so
	// their samples are spread over the pass as the operations are.
	boots []boot
	ops   []op
}

// boot is one named machine or cluster boot timed toward setup_s.
type boot struct {
	name string
	run  func() error
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	plan func(seed uint64) plan
	// countCell, when non-nil, runs the cell the traced run reads layer
	// counters from, for workloads whose operations keep their machines to
	// themselves. It returns the cell's host wall time.
	countCell func(c *counts) (time.Duration, error)
}

// passResult is the host-side cost of one pass.
type passResult struct {
	rssMB float64 // peak resident memory during the pass
	run   map[string]time.Duration
	wall  time.Duration
}

// bench runs one workload and keeps its correctness ledger.
type bench struct {
	w    workload
	seed uint64
	// expect holds the recorded digest of every operation, nil when the
	// seed has none; then every pass must reproduce the first pass's.
	expect   map[string]string
	observed map[string]string

	attempted, failed int
	spans             *spanRecorder
	// bootNs holds every boot time of the run, in nanoseconds, by boot.
	bootNs map[string][]float64
}

// bootReps is how often an operation boots its machines before its run;
// it keeps the last. A boot takes milliseconds and its time varies by a
// third within a second on a shared host, so setup_s takes medians over
// many boots.
const bootReps = 9

// pass runs every operation of the workload once. It starts from a heap
// returned to the operating system, so its peak resident memory does not
// carry over from the previous pass.
func (b *bench) pass(c *counts) (pr passResult, err error) {
	pr.run = make(map[string]time.Duration)
	debug.FreeOSMemory()
	rss := startRSS()
	defer func() { pr.rssMB = rss.endMB() }()
	sp := b.spans.begin("pass", 0)
	defer b.spans.end(sp)
	pl := b.w.plan(b.seed)
	for _, o := range pl.ops {
		for _, bt := range pl.boots {
			if err := b.timeBoot(bt, 1, sp); err != nil {
				return pr, fmt.Errorf("%s: %w", b.w.name, err)
			}
		}
		b.attempted++
		if err := b.do(o, &pr, c, sp); err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s: FAILED: %v\n", b.w.name, o.name, err)
		}
	}
	return pr, nil
}

// timeBoot runs one boot reps times and records each time under the
// boot's name. Each boot starts after the garbage of what ran before is
// collected, outside the timed section, so neither its time nor the
// process's peak memory depends on what ran before.
func (b *bench) timeBoot(bt boot, reps int, parent int) error {
	s := b.spans.begin("boot "+bt.name, parent)
	defer b.spans.end(s)
	if b.bootNs == nil {
		b.bootNs = make(map[string][]float64)
	}
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		err := bt.run()
		b.bootNs[bt.name] = append(b.bootNs[bt.name], float64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("boot %s: %w", bt.name, err)
		}
	}
	return nil
}

// do boots one operation's machines, runs it and checks it. It collects
// the boots' garbage before the timed run.
func (b *bench) do(o op, pr *passResult, c *counts, parent int) error {
	if o.boot != nil {
		if err := b.timeBoot(boot{o.name, o.boot}, bootReps, parent); err != nil {
			return err
		}
	}
	runtime.GC()
	s := b.spans.begin("run "+o.name, parent)
	t0 := time.Now()
	err := o.run()
	d := time.Since(t0)
	b.spans.end(s)
	pr.run[o.name] += d
	pr.wall += d
	if err != nil {
		return err
	}
	s = b.spans.begin("verify "+o.name, parent)
	defer b.spans.end(s)
	digest, err := o.verify(c)
	if err != nil {
		return err
	}
	return b.check(o.name, digest)
}

// check compares an operation's digest with the recorded one, or, for a
// seed without recorded digests, with the first pass's.
func (b *bench) check(name, digest string) error {
	first, seen := b.observed[name]
	if !seen {
		if b.observed == nil {
			b.observed = make(map[string]string)
		}
		b.observed[name] = digest
	}
	if b.expect != nil {
		want, ok := b.expect[name]
		if !ok {
			return fmt.Errorf("no recorded digest for this operation")
		}
		if digest != want {
			return fmt.Errorf("digest %s, recorded %s", digest, want)
		}
		return nil
	}
	if seen && digest != first {
		return fmt.Errorf("digest %s differs from the first pass's %s", digest, first)
	}
	return nil
}

// timedRun repeats passes for d (at least one) and reports the
// end-to-end metrics.
func (b *bench) timedRun(d time.Duration, host *hostMeter) (result, error) {
	var passes []passResult
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < d {
		pr, err := b.pass(nil)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, pr)
	}
	rss := make([]float64, len(passes))
	for i, p := range passes {
		rss[i] = p.rssMB
	}
	var setup float64
	for _, ts := range b.bootNs {
		setup += median(ts)
	}
	fmt.Printf("%s: seed %d, %d passes of %d operations; wall_s sums the per-operation medians over the passes, setup_s the per-boot medians over the run; peak_rss_mb is the median over the passes\n",
		b.w.name, b.seed, len(passes), b.attempted/len(passes))
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics: map[string]metric{
			"wall_s":      {medianWall(passes).Seconds(), "s"},
			"setup_s":     {setup / 1e9, "s"},
			"peak_rss_mb": {median(rss), "MB"},
			"ok_share":    {float64(b.attempted-b.failed) / float64(b.attempted), "share"},
		},
	}, nil
}

// medianWall sums, over operations, each operation's median run time
// across passes: one slow pass moves no operation's median, so the sum is
// steadier than the median of pass totals on a shared host.
func medianWall(passes []passResult) time.Duration {
	var sum float64
	for name := range passes[0].run {
		ts := make([]float64, 0, len(passes))
		for _, p := range passes {
			ts = append(ts, float64(p.run[name]))
		}
		sum += median(ts)
	}
	return time.Duration(sum)
}

// tracedRun is the separate run that gives the per-layer numbers: one
// untraced pass for the host counters, one pass with spans and a CPU
// profile, the workload's layer counters, and every layer probe.
func (b *bench) tracedRun(host *hostMeter) (result, error) {
	m := make(map[string]metric)

	h0 := host.sample()
	plain, err := b.pass(nil)
	if err != nil {
		return result{}, err
	}
	h1 := host.sample()
	host.report(m, h0, h1)

	b.spans = newSpanRecorder()
	var c counts
	profFile := filepath.Join(".bench_build", "profiles", fmt.Sprintf("cpu-%s-seed%d.pb.gz", b.w.name, b.seed))
	traced, err := b.profiledPass(&c, profFile)
	if err != nil {
		return result{}, err
	}
	shares, err := packageShares(profFile)
	if err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	for mod, v := range shares {
		m["host_share."+mod] = metric{v, "share"}
	}
	m["trace.overhead_s"] = metric{(traced.wall - plain.wall).Seconds(), "s"}

	countWall := plain.wall
	if b.w.countCell != nil {
		c = counts{}
		s := b.spans.begin("count-cell", 0)
		countWall, err = b.w.countCell(&c)
		b.spans.end(s)
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: count cell: FAILED: %v\n", b.w.name, err)
		}
	}
	c.report(m, countWall)

	ps := b.spans.begin("probes", 0)
	for _, p := range probes() {
		b.attempted++
		s := b.spans.begin("probe "+p.name, ps)
		err := runProbe(p, m)
		b.spans.end(s)
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: FAILED: %v\n", p.name, err)
		}
	}
	b.spans.end(ps)
	b.spans.report(m)
	if err := b.spans.write(fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans not written: %v\n", err)
	}
	m["host.steal_share"] = metric{host.stealShare(), "share"}
	printPredictions(b.w.name, shares)
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// profiledPass runs one pass under a CPU profile written to file, which
// lies under .bench_build in the working directory, the checkout's root.
func (b *bench) profiledPass(c *counts, file string) (passResult, error) {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return passResult{}, err
	}
	f, err := os.Create(file)
	if err != nil {
		return passResult{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return passResult{}, fmt.Errorf("cpu profile: %w", err)
	}
	pr, err := b.pass(c)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("cpu profile: %w", cerr)
	}
	return pr, err
}

// printPredictions states, next to the measured shares, the predictions
// the traced run exists to confirm or refute.
func printPredictions(name string, shares map[string]float64) {
	largest := func(keys ...string) bool {
		var in float64
		for _, k := range keys {
			in += shares[k]
		}
		for k, v := range shares {
			if k == "other" || contains(keys, k) {
				continue
			}
			if v > in {
				return false
			}
		}
		return true
	}
	switch name {
	case "paper-quick":
		fmt.Printf("prediction: cache is the largest host share on paper-quick: %s\n", verdict(largest("cache")))
	case "prod-aof":
		fmt.Printf("prediction: go_sched plus sim is the largest host share on prod-aof: %s\n", verdict(largest("go_sched", "sim")))
	}
}

func verdict(ok bool) string {
	if ok {
		return "confirmed"
	}
	return "refuted"
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
