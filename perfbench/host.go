package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostMeter reads the host facts printed with every result and the host
// counters of the traced run.
type hostMeter struct {
	steal0, total0 int64
}

// startHost snapshots the machine-wide steal ticks at the start of a run.
func startHost() *hostMeter {
	h := &hostMeter{}
	h.steal0, h.total0 = procStatTicks()
	return h
}

// procStatTicks returns the steal and total ticks of the aggregate "cpu"
// line of /proc/stat, or zeros where it is unavailable.
func procStatTicks() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of all CPU ticks since startHost that the
// hypervisor gave to other guests. Runs where it is high are noisy.
func (h *hostMeter) stealShare() float64 {
	s, t := procStatTicks()
	if t <= h.total0 {
		return 0
	}
	return float64(s-h.steal0) / float64(t-h.total0)
}

// rssSampler tracks the process's peak resident set over one pass by
// sampling /proc/self/statm, because VmHWM cannot be reset between
// passes. Resident memory falls only when the runtime returns pages, so
// a 5 ms period sees the peak of every phase that allocates.
type rssSampler struct {
	peak       int64 // bytes; written by the sampling goroutine only
	stop, done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := rssBytes(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// endMB stops the sampler, waits for it, and returns the peak in MiB.
func (s *rssSampler) endMB() float64 {
	close(s.stop)
	<-s.done
	if v := rssBytes(); v > s.peak {
		s.peak = v
	}
	return float64(s.peak) / (1 << 20)
}

// rssBytes is the process's resident set, or 0 where /proc is missing.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(fields[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// hostSample is a snapshot of the process's CPU and allocation counters.
type hostSample struct {
	cpuS, gcCPUS, totalCPUS, allocBytes float64
}

func (h *hostMeter) sample() hostSample {
	var s hostSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ms)
	val := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		}
		return 0
	}
	s.gcCPUS, s.totalCPUS, s.allocBytes = val(0), val(1), val(2)
	return s
}

// report adds the host counters between two samples.
func (h *hostMeter) report(m map[string]metric, a, b hostSample) {
	m["host.cpu_s"] = metric{b.cpuS - a.cpuS, "s"}
	m["host.alloc_mb"] = metric{(b.allocBytes - a.allocBytes) / (1 << 20), "MB"}
	gc := 0.0
	if b.totalCPUS > a.totalCPUS {
		gc = (b.gcCPUS - a.gcCPUS) / (b.totalCPUS - a.totalCPUS)
	}
	m["host.gc_cpu_share"] = metric{gc, "share"}
}

// facts is the one-line JSON of host facts printed with every result.
func (h *hostMeter) facts() string {
	f := map[string]any{
		"cpus":        runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      commit(),
		"source":      sourceDigest(),
		"steal_share": h.stealShare(),
	}
	out, _ := json.Marshal(f)
	return string(out)
}

// commit is the VCS revision the binary was built from, or "unknown"
// when it was built outside a git checkout; sourceDigest identifies the
// code in either case.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file of the program (not of
// the benchmark) under the working directory, so two results can be
// matched to the same code without git.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"go.mod", "internal", "cmd", "stramash.go"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
				files = append(files, p)
			}
			return nil // a missing root hashes as absent
		})
	}
	sort.Strings(files)
	sum := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		sum.Write([]byte(p + "\x00"))
		sum.Write(data)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}
