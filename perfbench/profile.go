package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// This file attributes a CPU profile's samples to the program's modules.
// The toolchain's pprof prints every sample stack as text; the stacks are
// classified here.

// shareModules are the program packages reported as host_share.<name>.
var shareModules = []string{"cache", "sim", "kernel", "hw", "mem", "net", "redisapp",
	"vfs", "interconnect", "popcorn", "stramash"}

// schedFuncs are runtime functions where goroutines park, hand off and
// wake: with one simulated thread per goroutine, this is the simulator's
// hand-off cost.
var schedFuncs = []string{"runtime.gopark", "runtime.park_m", "runtime.schedule",
	"runtime.findRunnable", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.futex",
	"runtime.notesleep", "runtime.notewakeup", "runtime.wakep", "runtime.startm",
	"runtime.stopm", "runtime.goschedImpl", "runtime.runqgrab", "runtime.stealWork",
	"runtime.osyield", "runtime.usleep", "runtime.netpoll", "runtime.resetspinning"}

// runtimePkgs prefix the functions of the Go runtime's own packages.
var runtimePkgs = []string{"runtime.", "runtime/", "internal/runtime/"}

// gcFuncs are the collector's entry points; a sample under any of them is
// collector time.
var gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
	"runtime.sweepone", "runtime.(*mheap).reclaim"}

// packageShares returns the share of CPU time per module, plus go_sched,
// gc and other, of the CPU profile in file.
func packageShares(file string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", file).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return sharesOfTraces(string(out))
}

// sharesOfTraces parses `pprof -traces` output: stacks separated by a
// dashed line, innermost frame first, the first frame led by the stack's
// CPU time. A sample counts toward the collector if any frame is a
// collector entry point, toward go_sched if its innermost frames are
// runtime scheduling, and otherwise toward the package of its innermost
// non-runtime frame, so an allocation counts toward its caller.
func sharesOfTraces(text string) (map[string]float64, error) {
	shares := map[string]float64{"go_sched": 0, "gc": 0, "other": 0}
	for _, mod := range shareModules {
		shares[mod] = 0
	}
	var total, value float64
	var frames []string
	inStack := false
	flush := func() {
		if len(frames) > 0 {
			shares[classify(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStack = true
			continue
		}
		f := strings.Fields(line)
		if !inStack || len(f) == 0 {
			continue
		}
		if len(frames) == 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			value, f = d.Seconds(), f[1:]
		}
		frames = append(frames, f[0])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// classify names the bucket of one stack, innermost frame first.
func classify(frames []string) string {
	for _, f := range frames {
		if hasPrefixAny(f, gcFuncs) {
			return "gc"
		}
	}
	sched := false
	for _, f := range frames {
		if !hasPrefixAny(f, runtimePkgs) {
			if sched {
				return "go_sched"
			}
			return module(f)
		}
		if hasPrefixAny(f, schedFuncs) {
			sched = true
		}
	}
	if sched {
		return "go_sched"
	}
	return "other"
}

func hasPrefixAny(f string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// module maps a function name such as
// "repro/internal/cache.(*Hierarchy).accessLine" to "cache", or to
// "other" when it is not one of shareModules.
func module(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		rest := pkg[i+1:]
		if j := strings.Index(rest, "."); j >= 0 {
			pkg = pkg[:i+1+j]
		}
	}
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, mod := range shareModules {
			if name == mod {
				return mod
			}
		}
	}
	return "other"
}
