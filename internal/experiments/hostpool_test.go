package experiments

import (
	"bytes"
	"testing"
)

// renderSpec runs one spec at the given scale and returns the canonical
// rendered report plus the exported metrics map (nil when the result does
// not implement CycleMetrics).
func renderSpec(t *testing.T, spec Spec, scale Scale) (string, map[string]int64) {
	t.Helper()
	var buf bytes.Buffer
	res, _, err := RunAndReport(&buf, spec, scale)
	if err != nil {
		t.Fatalf("%s: %v", spec.ID, err)
	}
	var metrics map[string]int64
	if cm, ok := res.(CycleMetrics); ok {
		metrics = cm.Metrics()
	}
	return buf.String(), metrics
}

// withHostProcs runs fn with the package-level row-pool width overridden
// and restores it afterwards. The knob is process-global, so tests using
// this helper must not run in parallel with each other.
func withHostProcs(procs int, fn func()) {
	prev := HostProcs
	defer func() { HostProcs = prev }()
	HostProcs = procs
	fn()
}

// TestEngineHostPoolRows drives every row-pooled experiment (the extras:
// multicore rows, filesys, cluster, redisprod and tenants cells) with the
// row pool 1 and 4 wide. Rows are independent machines whose results are
// assembled by row index, so the rendered report and the exported metrics
// must be identical at any width.
func TestEngineHostPoolRows(t *testing.T) {
	for _, spec := range Extra() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			var want, got string
			var wantMetrics, gotMetrics map[string]int64
			withHostProcs(1, func() { want, wantMetrics = renderSpec(t, spec, Quick) })
			withHostProcs(4, func() { got, gotMetrics = renderSpec(t, spec, Quick) })
			if got != want {
				t.Errorf("hostprocs=4: %s report diverged from hostprocs=1\n1:\n%s\n4:\n%s", spec.ID, want, got)
			}
			if len(gotMetrics) != len(wantMetrics) {
				t.Errorf("hostprocs=4: %d metrics, hostprocs=1: %d", len(gotMetrics), len(wantMetrics))
			}
			for k, v := range wantMetrics {
				if gv, ok := gotMetrics[k]; !ok || gv != v {
					t.Errorf("metric %q: hostprocs=1 %d, hostprocs=4 %d", k, v, gv)
				}
			}
		})
	}
}
