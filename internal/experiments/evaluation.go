package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/npb"
	"repro/internal/sim"
)

// ---------------------------------------------------------------- Table 3

// Table3Row is one benchmark's message/replication comparison.
type Table3Row struct {
	Benchmark        string
	PopcornMessages  int64
	StramashMessages int64
	MsgReduction     float64
	PopcornPages     int64
	StramashPages    int64
	PageReduction    float64
}

// Table3Result reproduces Table 3: messages and replicated pages during
// migration + runtime, Popcorn vs Stramash.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs each benchmark under both OSes on the Shared model and
// collects the counters.
func Table3(scale Scale) (*Table3Result, error) {
	class := scale.class()
	benches := []string{"IS", "CG", "MG", "FT"}
	oses := []machine.OSKind{machine.PopcornSHM, machine.StramashOS}
	// msgs and pages are indexed [benchmark][OS].
	msgs, pages := make([][2]int64, len(benches)), make([][2]int64, len(benches))
	err := forEachRow(len(benches)*len(oses), func(i int) error {
		b, k := i/len(oses), i%len(oses)
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: oses[k]})
		if err != nil {
			return err
		}
		_, task, err := runBenchmark(m, benches[b], class, true)
		if err != nil {
			return fmt.Errorf("table3 %s/%v: %w", benches[b], oses[k], err)
		}
		msgs[b][k], pages[b][k] = m.Messages(), task.Proc.ReplicatedPages
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &Table3Result{}
	for b, bench := range benches {
		row := Table3Row{
			Benchmark:       bench,
			PopcornMessages: msgs[b][0], StramashMessages: msgs[b][1],
			PopcornPages: pages[b][0], StramashPages: pages[b][1],
		}
		row.MsgReduction = 1 - ratio(float64(row.StramashMessages), float64(row.PopcornMessages))
		row.PageReduction = 1 - ratio(float64(row.StramashPages), float64(row.PopcornPages))
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Name implements Result.
func (r *Table3Result) Name() string {
	return "Table 3: messages and replicated pages during migration"
}

// Render implements Result.
func (r *Table3Result) Render() string {
	tw := &tableWriter{header: []string{"", "Popcorn msgs", "Stramash msgs", "reduced", "Popcorn pages", "Stramash pages", "reduced"}}
	for _, row := range r.Rows {
		tw.addRow(row.Benchmark, fi(row.PopcornMessages), fi(row.StramashMessages), fp(row.MsgReduction),
			fi(row.PopcornPages), fi(row.StramashPages), fp(row.PageReduction))
	}
	return tw.String()
}

// ShapeErrors implements Result: large message reductions everywhere
// (≥99.8% in the paper at its scale; our scaled runs demand ≥90%, and
// ≥70%% for FT whose origin-handled faults cost messages); page
// replication eliminated except FT, whose legacy-path pages keep its
// reduction rate visibly lower than the others (Table 3: 83% vs >99.8%).
func (r *Table3Result) ShapeErrors() []string {
	var errs []string
	var ftPageRed, minOtherPageRed float64 = 1, 1
	for _, row := range r.Rows {
		floor := 0.90
		if row.Benchmark == "FT" {
			floor = 0.70
		}
		if row.MsgReduction < floor {
			errs = append(errs, fmt.Sprintf("%s: message reduction %.2f%% < %.0f%%", row.Benchmark, 100*row.MsgReduction, 100*floor))
		}
		if row.Benchmark == "FT" {
			ftPageRed = row.PageReduction
			if row.StramashPages == 0 {
				errs = append(errs, "FT: no Stramash legacy-path pages; the paper's FT outlier is absent")
			}
		} else if row.PageReduction < minOtherPageRed {
			minOtherPageRed = row.PageReduction
		}
	}
	if ftPageRed >= minOtherPageRed {
		errs = append(errs, fmt.Sprintf("FT page reduction %.2f%% not below other benchmarks' (min %.2f%%)",
			100*ftPageRed, 100*minOtherPageRed))
	}
	return errs
}

// --------------------------------------------------------------- Figure 9

// NPBConfig is one bar of Figure 9.
type NPBConfig struct {
	Label   string
	OS      machine.OSKind
	Model   mem.Model
	Migrate bool
}

// Figure9Configs returns the paper's bar set: Vanilla, Popcorn TCP,
// Popcorn SHM (its three models perform alike, §9.2.1; Shared shown), and
// Stramash on all three hardware models.
func Figure9Configs() []NPBConfig {
	return []NPBConfig{
		{"Vanilla", machine.VanillaOS, mem.FullyShared, false},
		{"Popcorn-TCP", machine.PopcornTCP, mem.Shared, true},
		{"Popcorn-SHM", machine.PopcornSHM, mem.Shared, true},
		{"Stramash-FullyShared", machine.StramashOS, mem.FullyShared, true},
		{"Stramash-Shared", machine.StramashOS, mem.Shared, true},
		{"Stramash-Separated", machine.StramashOS, mem.Separated, true},
	}
}

// Figure9Cell is one benchmark × configuration time.
type Figure9Cell struct {
	Benchmark  string
	Config     string
	Cycles     sim.Cycles
	Normalized float64 // vs Vanilla (lower is better)
}

// Figure9Result reproduces the NPB comparison.
type Figure9Result struct {
	L3Size int
	Cells  []Figure9Cell
}

// Figure9 runs the NPB × OS/model grid (with the default 4 MB L3).
func Figure9(scale Scale) (*Figure9Result, error) {
	return npbGrid("figure9", machine.Config{}, scale.class(), []string{"IS", "CG", "MG", "FT"}, Figure9Configs())
}

// npbGrid runs every benchmark × configuration cell of an NPB grid on its
// own machine (base with the configuration's OS and model), pooled on the
// host budget, and normalises each cell to its benchmark's Vanilla run
// once all cells are in.
func npbGrid(id string, base machine.Config, class npb.Class, benches []string, configs []NPBConfig) (*Figure9Result, error) {
	r := &Figure9Result{L3Size: base.L3Size, Cells: make([]Figure9Cell, len(benches)*len(configs))}
	err := forEachRow(len(r.Cells), func(i int) error {
		bench, cfg := benches[i/len(configs)], configs[i%len(configs)]
		mc := base
		mc.Model, mc.OS = cfg.Model, cfg.OS
		m, err := machine.New(mc)
		if err != nil {
			return err
		}
		cycles, _, err := runBenchmark(m, bench, class, cfg.Migrate)
		if err != nil {
			return fmt.Errorf("%s %s/%s: %w", id, bench, cfg.Label, err)
		}
		r.Cells[i] = Figure9Cell{Benchmark: bench, Config: cfg.Label, Cycles: cycles}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for b := range benches {
		var vanilla sim.Cycles
		for k, cfg := range configs {
			c := &r.Cells[b*len(configs)+k]
			if cfg.Label == "Vanilla" {
				vanilla = c.Cycles
			}
			c.Normalized = ratio(float64(c.Cycles), float64(vanilla))
		}
	}
	return r, nil
}

// Cell finds one measurement.
func (r *Figure9Result) Cell(bench, config string) (Figure9Cell, bool) {
	for _, c := range r.Cells {
		if c.Benchmark == bench && c.Config == config {
			return c, true
		}
	}
	return Figure9Cell{}, false
}

// Speedup returns config b's time divided by config a's for a benchmark
// (>1 means a is faster).
func (r *Figure9Result) Speedup(bench, a, b string) float64 {
	ca, ok1 := r.Cell(bench, a)
	cb, ok2 := r.Cell(bench, b)
	if !ok1 || !ok2 {
		return 0
	}
	return ratio(float64(cb.Cycles), float64(ca.Cycles))
}

// Name implements Result.
func (r *Figure9Result) Name() string {
	if r.L3Size != 0 {
		return fmt.Sprintf("Figure 9: NPB results (L3 %d MiB)", r.L3Size>>20)
	}
	return "Figure 9: NPB results"
}

// Render implements Result.
func (r *Figure9Result) Render() string {
	tw := &tableWriter{header: []string{"Bench", "Config", "cycles", "normalized"}}
	for _, c := range r.Cells {
		tw.addRow(c.Benchmark, c.Config, fi(int64(c.Cycles)), f2(c.Normalized))
	}
	return tw.String()
}

// ShapeErrors implements Result: the §9.2.1 claims.
func (r *Figure9Result) ShapeErrors() []string {
	var errs []string
	for _, bench := range []string{"IS", "CG", "MG", "FT"} {
		// Stramash FullyShared is the best migrating configuration and
		// close to Vanilla.
		fsCell, ok := r.Cell(bench, "Stramash-FullyShared")
		if !ok {
			errs = append(errs, bench+": missing Stramash-FullyShared")
			continue
		}
		for _, other := range []string{"Popcorn-TCP", "Popcorn-SHM"} {
			oc, _ := r.Cell(bench, other)
			if fsCell.Cycles >= oc.Cycles {
				errs = append(errs, fmt.Sprintf("%s: Stramash-FullyShared (%d) not faster than %s (%d)",
					bench, fsCell.Cycles, other, oc.Cycles))
			}
		}
		// TCP is the slowest baseline.
		tcp, _ := r.Cell(bench, "Popcorn-TCP")
		shm, _ := r.Cell(bench, "Popcorn-SHM")
		if tcp.Cycles <= shm.Cycles {
			errs = append(errs, fmt.Sprintf("%s: TCP (%d) not slower than SHM (%d)", bench, tcp.Cycles, shm.Cycles))
		}
	}
	// IS: the headline speedup — Stramash ~2.1x over SHM, ~2.6x over TCP.
	if sp := r.Speedup("IS", "Stramash-Shared", "Popcorn-SHM"); sp < 1.3 {
		errs = append(errs, fmt.Sprintf("IS: Stramash-Shared speedup over SHM %.2fx < 1.3x (paper ≈ 2.1x)", sp))
	}
	if sp := r.Speedup("IS", "Stramash-Shared", "Popcorn-TCP"); sp < 1.5 {
		errs = append(errs, fmt.Sprintf("IS: Stramash speedup over TCP %.2fx < 1.5x (paper ≈ 2.6x)", sp))
	}
	return errs
}

// -------------------------------------------------------------- Figure 10

// Figure10Result is the cache-size sensitivity study: IS and CG at 4 MB
// and 32 MB L3.
type Figure10Result struct {
	// Results[l3] holds the Figure 9 grid at that L3 size.
	Small *Figure9Result // 4 MB
	Large *Figure9Result // 32 MB
}

// Figure10 runs IS and CG at both cache sizes. The study needs working
// sets that overflow the small L3 but fit the large one; since the
// reproduction scales NPB down (~1 MB working sets instead of hundreds of
// MB), the cache hierarchy is scaled with it — 256 KiB vs 2 MiB L3 over a
// 128 KiB L2 — preserving the capacity relationship of the paper's
// 4 MiB-vs-32 MiB study.
func Figure10(scale Scale) (*Figure10Result, error) {
	l3s := [2]int{256 << 10, 2 << 20}
	var grids [2]*Figure9Result
	err := forEachRow(len(l3s), func(g int) (err error) {
		grids[g], err = figure10Grid(l3s[g])
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Figure10Result{Small: grids[0], Large: grids[1]}, nil
}

// figure10Grid runs only IS and CG on the configs that matter for the
// study (SHM and Stramash-Shared/Separated plus Vanilla for normalization).
// Capacity effects need the full working set, so it runs class S at any
// scale.
func figure10Grid(l3 int) (*Figure9Result, error) {
	configs := []NPBConfig{
		{"Vanilla", machine.VanillaOS, mem.FullyShared, false},
		{"Popcorn-SHM", machine.PopcornSHM, mem.Shared, true},
		{"Stramash-Shared", machine.StramashOS, mem.Shared, true},
		{"Stramash-Separated", machine.StramashOS, mem.Separated, true},
	}
	return npbGrid("figure10", machine.Config{L3Size: l3, L2Size: 128 << 10}, npb.ClassS, []string{"IS", "CG"}, configs)
}

// Name implements Result.
func (r *Figure10Result) Name() string { return "Figure 10: IS vs CG cache-size sensitivity" }

// Render implements Result.
func (r *Figure10Result) Render() string {
	tw := &tableWriter{header: []string{"Bench", "Config", "4MB cycles", "32MB cycles", "32MB/4MB"}}
	for _, c := range r.Small.Cells {
		lc, _ := r.Large.Cell(c.Benchmark, c.Config)
		tw.addRow(c.Benchmark, c.Config, fi(int64(c.Cycles)), fi(int64(lc.Cycles)),
			f2(ratio(float64(lc.Cycles), float64(c.Cycles))))
	}
	return tw.String()
}

// ShapeErrors implements Result: §9.2.2's crossover claims.
func (r *Figure10Result) ShapeErrors() []string {
	var errs []string
	// CG: Stramash-Shared's gap to SHM shrinks dramatically with a big L3
	// (34% slowdown -> <1%).
	gap := func(res *Figure9Result) float64 {
		str, _ := res.Cell("CG", "Stramash-Shared")
		shm, _ := res.Cell("CG", "Popcorn-SHM")
		return ratio(float64(str.Cycles), float64(shm.Cycles))
	}
	smallGap, largeGap := gap(r.Small), gap(r.Large)
	if largeGap >= smallGap {
		errs = append(errs, fmt.Sprintf("CG: Stramash/SHM gap did not shrink with 32MB L3 (%.2f -> %.2f)", smallGap, largeGap))
	}
	if largeGap > 1.15 {
		errs = append(errs, fmt.Sprintf("CG: Stramash-Shared still %.2fx of SHM at 32MB (paper: <1%% slowdown)", largeGap))
	}
	// CG: a larger L3 helps Stramash substantially (its misses went to
	// remote memory), but barely helps Popcorn-SHM (always local replicas).
	strImp := func() float64 {
		s, _ := r.Small.Cell("CG", "Stramash-Shared")
		l, _ := r.Large.Cell("CG", "Stramash-Shared")
		return ratio(float64(l.Cycles), float64(s.Cycles))
	}()
	shmImp := func() float64 {
		s, _ := r.Small.Cell("CG", "Popcorn-SHM")
		l, _ := r.Large.Cell("CG", "Popcorn-SHM")
		return ratio(float64(l.Cycles), float64(s.Cycles))
	}()
	if strImp >= shmImp {
		errs = append(errs, fmt.Sprintf("CG: bigger L3 helped Stramash (%.2f) less than Popcorn (%.2f)", strImp, shmImp))
	}
	// IS: Stramash stays ahead of SHM at both sizes, but the advantage
	// narrows (2.1x -> 1.6x in the paper).
	speedup := func(res *Figure9Result) float64 {
		str, _ := res.Cell("IS", "Stramash-Shared")
		shm, _ := res.Cell("IS", "Popcorn-SHM")
		return ratio(float64(shm.Cycles), float64(str.Cycles))
	}
	spSmall, spLarge := speedup(r.Small), speedup(r.Large)
	if spSmall <= 1 {
		errs = append(errs, fmt.Sprintf("IS: Stramash not ahead of SHM at the small L3 (%.2fx)", spSmall))
	}
	if spLarge <= 1 {
		errs = append(errs, fmt.Sprintf("IS: Stramash not ahead of SHM at the large L3 (%.2fx)", spLarge))
	}
	// Note: the paper additionally observes IS's Stramash advantage
	// *narrowing* with the larger L3 (2.1x -> 1.6x) because Popcorn-SHM's
	// fewer LRU evictions mean fewer write-backs and hence fewer DSM
	// consistency actions. Our DSM is fault-driven only (no
	// writeback-triggered consistency), so that secondary effect is out of
	// model; EXPERIMENTS.md records it as a known deviation rather than a
	// shape failure.
	return errs
}
