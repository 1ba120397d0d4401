package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/hwref"
)

func TestAllSpecsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.ID] {
			t.Errorf("duplicate id %q", s.ID)
		}
		seen[s.ID] = true
		if s.Run == nil {
			t.Errorf("%s has no runner", s.ID)
		}
	}
	if len(seen) != 16 {
		t.Errorf("%d experiments registered, want 16 (every table and figure + 2 ablations)", len(seen))
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("fig9"); !ok {
		t.Error("fig9 not found")
	}
	if _, ok := Find("fig99"); ok {
		t.Error("nonexistent experiment found")
	}
}

func TestTable2Exact(t *testing.T) {
	r := Table2()
	if errs := r.ShapeErrors(); len(errs) != 0 {
		t.Errorf("Table 2 values drifted: %v", errs)
	}
	if !strings.Contains(r.Render(), "Xeon Gold") {
		t.Error("render missing rows")
	}
}

func TestFigure5_6(t *testing.T) {
	r, err := Figure5_6(hwref.BigPair())
	if err != nil {
		t.Fatal(err)
	}
	if errs := r.ShapeErrors(); len(errs) != 0 {
		t.Errorf("IPI shape: %v", errs)
	}
	if len(r.Samples[0]) == 0 || len(r.Samples[1]) == 0 {
		t.Error("empty matrices")
	}
}

func TestTable3QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Table3(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r.ShapeErrors(); len(errs) != 0 {
		t.Errorf("Table 3 shape: %v", errs)
	}
	if len(r.Rows) != 4 {
		t.Errorf("rows = %d", len(r.Rows))
	}
}

func TestFigure9QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Figure9(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r.ShapeErrors(); len(errs) != 0 {
		t.Errorf("Figure 9 shape: %v", errs)
	}
	// 4 benchmarks x 6 configs.
	if len(r.Cells) != 24 {
		t.Errorf("cells = %d, want 24", len(r.Cells))
	}
	if sp := r.Speedup("IS", "Stramash-Shared", "Popcorn-SHM"); sp <= 1 {
		t.Errorf("IS headline speedup %.2f", sp)
	}
}

func TestFigure12QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Figure12(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r.ShapeErrors(); len(errs) != 0 {
		t.Errorf("Figure 12 shape: %v", errs)
	}
	if r.Rows[0].Lines != 1 || r.Rows[len(r.Rows)-1].Lines != 64 {
		t.Error("sweep endpoints wrong")
	}
}

func TestFigure13QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Figure13(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r.ShapeErrors(); len(errs) != 0 {
		t.Errorf("Figure 13 shape: %v", errs)
	}
}

func TestRunAndReportRendersShape(t *testing.T) {
	var buf bytes.Buffer
	spec, _ := Find("table2")
	res, shape, err := RunAndReport(&buf, spec, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(shape) != 0 {
		t.Errorf("res=%v shape=%v", res, shape)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "REPRODUCED") {
		t.Errorf("report output: %q", out)
	}
}

func TestTableWriterAlignment(t *testing.T) {
	tw := &tableWriter{header: []string{"a", "long-header"}}
	tw.addRow("xxxxx", "y")
	out := tw.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("separator misaligned:\n%s", out)
	}
}

func TestScaleClass(t *testing.T) {
	if Quick.class().String() != "T" || Full.class().String() != "S" {
		t.Error("scale->class mapping wrong")
	}
}

// TestParseScale pins the one scale parser both CLIs call: only the exact
// spellings "quick" and "full" are accepted, so a misspelt or miscased
// scale is a usage error rather than a silent quick run.
func TestParseScale(t *testing.T) {
	cases := []struct {
		in      string
		want    Scale
		wantErr bool
	}{
		{"quick", Quick, false},
		{"full", Full, false},
		{"Full", 0, true},
		{"QUICK", 0, true},
		{"bogus", 0, true},
		{"", 0, true},
		{" full", 0, true},
	}
	for _, c := range cases {
		got, err := ParseScale(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseScale(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}
