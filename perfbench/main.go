// Command perfbench is the repository's same-host benchmark. It runs one
// workload from a single process, checks every operation's output against
// recorded digests, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as the last line of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-quick --seed 7 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// defaultSeed is the seed the pinned experiments use, so prod-aof at this
// seed reproduces the redisprod Extra cell for cell. heldOutSeed was fixed
// once and never used while the benchmark was tuned; both have recorded
// digests, so a claimed gain can be confirmed on the held-out seed.
const (
	defaultSeed = 7
	heldOutSeed = 1009
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-quick, prod-aof or cluster-get")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 30, "measure for this many seconds (at least one pass)")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	record := flag.Bool("record", false, "print the observed digests as JSON instead of checking them")
	probeOnly := flag.String("probe", "", "run only the named layer probe (or \"all\") and print its metrics")
	flag.Parse()

	if *probeOnly != "" {
		os.Exit(runProbesOnly(*probeOnly))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, expect: expectedDigests(w.name, *seed)}
	if *record {
		b.expect = nil
		if _, err := b.pass(nil); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		out, _ := json.MarshalIndent(b.observed, "", "  ")
		fmt.Println(string(out))
		if b.failed != 0 {
			os.Exit(1)
		}
		return
	}

	host := startHost()
	var res result
	var err error
	if *traced == 1 {
		res, err = b.tracedRun(host)
	} else {
		res, err = b.timedRun(time.Duration(*seconds)*time.Second, host)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("host: " + host.facts())
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
