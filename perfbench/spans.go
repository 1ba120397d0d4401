package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program: a cell
// boot, run or verify, a count cell, or a layer probe.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = top level
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced runs pay one nil check per call.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes span id.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// report adds the total time of each span kind (the name's first word):
// boot, run and verify of the traced pass's operations, and the probes.
func (r *spanRecorder) report(m map[string]metric) {
	sums := map[string]float64{"boot": 0, "run": 0, "verify": 0, "probe": 0}
	for _, s := range r.spans {
		kind, _, _ := strings.Cut(s.Name, " ")
		if _, ok := sums[kind]; ok {
			sums[kind] += float64(s.End-s.Start) / 1e9
		}
	}
	for kind, v := range sums {
		m["span."+kind+"_s"] = metric{v, "s"}
	}
}

// write stores the spans as JSON under .bench_build in the working
// directory, which is the checkout's root.
func (r *spanRecorder) write(name string) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), out, 0o644)
}
