package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// digests.json records every operation's digest: for paper-quick the
// digest of each spec's rendered report, which no seed changes; for the
// redis grids the digest of each cell's simulated p50, p99, elapsed
// cycles and responses, at the default and the held-out seed. Regenerate
// an entry with --record and review the change like a golden file.
//
//go:embed digests.json
var digestsJSON []byte

// anySeed keys the digests of a workload whose outputs do not depend on
// the seed.
const anySeed = "any"

// expectedDigests returns the recorded digests of one workload at one
// seed, or nil when none are recorded.
func expectedDigests(workload string, seed uint64) map[string]string {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err)) // embedded at build time
	}
	if d, ok := all[workload][anySeed]; ok {
		return d
	}
	return all[workload][fmt.Sprint(seed)]
}
