package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

// withWidth runs fn with the host-parallelism width overridden and
// restores it afterwards. The width is process-global, so tests using this
// helper must not run in parallel with each other.
func withWidth(w int, fn func()) {
	defer budget.setWidth(budget.setWidth(w))
	fn()
}

// pooledSpecs are the specs whose machine runs go through forEachRow:
// every paper runner that boots machines per cell, and every extra.
func pooledSpecs() []Spec {
	var specs []Spec
	for _, s := range All() {
		switch s.ID {
		case "table2", "fig5-6-small", "fig5-6-big":
			// No per-cell machines to pool.
		default:
			specs = append(specs, s)
		}
	}
	return append(specs, Extra()...)
}

// countRows installs a rowHook that tracks the high-water mark of
// concurrently running row bodies, for the duration of the test.
func countRows(t *testing.T) *atomic.Int32 {
	var cur, high atomic.Int32
	rowHook = func(delta int) {
		n := cur.Add(int32(delta))
		for m := high.Load(); n > m && !high.CompareAndSwap(m, n); m = high.Load() {
		}
	}
	t.Cleanup(func() { rowHook = nil })
	return &high
}

// TestHostPoolRows drives every pooled spec with the host width 1 and 4.
// Rows are independent machines whose results are assembled by row index,
// so the rendered report and the exported -json metrics must be identical
// at any width.
func TestHostPoolRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every pooled spec twice")
	}
	for _, spec := range pooledSpecs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			var want, got string
			var wantMetrics, gotMetrics map[string]int64
			withWidth(1, func() { want, wantMetrics = renderSpec(t, spec, Quick) })
			withWidth(4, func() { got, gotMetrics = renderSpec(t, spec, Quick) })
			if got != want {
				t.Errorf("width 4: %s report diverged from width 1\n1:\n%s\n4:\n%s", spec.ID, want, got)
			}
			if len(gotMetrics) != len(wantMetrics) {
				t.Errorf("width 4: %d metrics, width 1: %d", len(gotMetrics), len(wantMetrics))
			}
			for k, v := range wantMetrics {
				if gv, ok := gotMetrics[k]; !ok || gv != v {
					t.Errorf("metric %q: width 1 %d, width 4 %d", k, v, gv)
				}
			}
		})
	}
}

// TestRunPoolWidthBoundsRows runs RunPool 2 wide over pooled paper specs
// and checks, through rowHook, that specs and their rows together never
// run more than 2 row bodies at once.
func TestRunPoolWidthBoundsRows(t *testing.T) {
	var specs []Spec
	for _, id := range []string{"table3", "fig9", "fig12", "fig13", "ablation-ipi"} {
		s, ok := Find(id)
		if !ok {
			t.Fatalf("missing spec %s", id)
		}
		specs = append(specs, s)
	}
	high := countRows(t)
	for _, o := range RunPool(context.Background(), specs, Quick, PoolOptions{Parallelism: 2}) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	got := high.Load()
	if got > 2 || got < 1 {
		t.Errorf("high-water mark of concurrent row bodies = %d, want 1..2", got)
	}
	t.Logf("high-water mark of concurrent row bodies: %d", got)
}

// TestForEachRowWidth pins the budget's contract on synthetic rows: width
// 1 runs rows strictly in index order one at a time, and nested pools (an
// outer row running an inner forEachRow) never exceed the width and
// always finish.
func TestForEachRowWidth(t *testing.T) {
	t.Run("width=1 sequential", func(t *testing.T) {
		high := countRows(t)
		var order []int
		withWidth(1, func() {
			if err := forEachRow(6, func(i int) error {
				order = append(order, i)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("width 1 ran rows in order %v", order)
			}
		}
		if high.Load() != 1 {
			t.Errorf("width 1 ran %d rows at once", high.Load())
		}
	})
	t.Run("width=3 nested", func(t *testing.T) {
		// Outer rows only run inner pools, so the inner rows are the work
		// in flight; count them directly.
		var cur, high, leaves atomic.Int32
		withWidth(3, func() {
			err := forEachRow(4, func(int) error {
				return forEachRow(5, func(int) error {
					n := cur.Add(1)
					for m := high.Load(); n > m && !high.CompareAndSwap(m, n); m = high.Load() {
					}
					time.Sleep(time.Millisecond)
					cur.Add(-1)
					leaves.Add(1)
					return nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if leaves.Load() != 20 {
			t.Errorf("ran %d inner rows, want 20", leaves.Load())
		}
		if got := high.Load(); got > 3 {
			t.Errorf("%d inner rows ran at once, width is 3", got)
		}
		budget.mu.Lock()
		defer budget.mu.Unlock()
		if budget.busy != 0 {
			t.Errorf("%d tokens still held after the pool finished", budget.busy)
		}
	})
	t.Run("first error by index", func(t *testing.T) {
		withWidth(4, func() {
			err := forEachRow(8, func(i int) error {
				if i == 2 || i == 6 {
					time.Sleep(time.Duration(8-i) * time.Millisecond)
					return errRow(i)
				}
				return nil
			})
			if err != errRow(2) {
				t.Errorf("forEachRow returned %v, want row 2's error", err)
			}
		})
	})
}

// TestRowPanicIsSpecError: a row that panics on a helper goroutine is
// re-raised on the spec's goroutine, so RunPool reports it as that spec's
// error instead of crashing the process.
func TestRowPanicIsSpecError(t *testing.T) {
	spec := Spec{ID: "rowpanic", Run: func(Scale) (Result, error) {
		err := forEachRow(8, func(i int) error {
			if i == 7 {
				panic("row 7 wedged")
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		return fakeResult{name: "unreachable"}, err
	}}
	out := RunPool(context.Background(), []Spec{spec}, Quick, PoolOptions{Parallelism: 4})
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "row 7 wedged") {
		t.Errorf("outcome error = %v, want the row's panic", out[0].Err)
	}
}

type errRow int

func (e errRow) Error() string { return "row failed" }
