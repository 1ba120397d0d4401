package experiments

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/microbench"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/stramash"
)

// ------------------------------------------- ablation: remote allocation

// RemoteAllocRow is one benchmark under both settings.
type RemoteAllocRow struct {
	Benchmark     string
	WithCycles    sim.Cycles // PTE-level remote allocation on (the design)
	WithoutCycles sim.Cycles // every fresh remote fault deferred to origin
	Messages      [2]int64   // with / without
	Slowdown      float64
}

// RemoteAllocResult quantifies what §6.4's remote anonymous allocation
// buys: with it disabled, every remotely-first-touched page takes the
// origin-handled legacy path (messages + origin placement), which is the
// pre-Stramash behaviour.
type RemoteAllocResult struct {
	Rows []RemoteAllocRow
}

// AblationRemoteAlloc measures the mechanism directly: a migrated task
// first-touches pages of a heap region whose upper-level tables the origin
// already built (the common growing-heap case). With the mechanism, each
// fault is resolved locally (allocate + map + one remote PTE write);
// without it, each page costs an origin round trip. It also reruns FT,
// whose scratch array is the paper's natural beneficiary.
func AblationRemoteAlloc(scale Scale) (*RemoteAllocResult, error) {
	r := &RemoteAllocResult{}
	pagesToTouch := 256
	if scale == Quick {
		pagesToTouch = 96
	}

	heapRow := RemoteAllocRow{Benchmark: "heap-growth"}
	err := forEachRow(2, func(i int) error {
		disable := i == 1
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS})
		if err != nil {
			return err
		}
		if so, ok := m.OS.(*stramash.OS); ok {
			so.DisableRemoteAlloc = disable
		}
		var cycles sim.Cycles
		_, err = m.RunSingle("heap", mem.NodeX86, func(t *kernel.Task) error {
			base, err := t.Proc.MmapAligned(uint64(pagesToTouch+2)*mem.PageSize, 2<<20,
				kernel.VMARead|kernel.VMAWrite, "heap")
			if err != nil {
				return err
			}
			// Origin touches the first page: the region's upper-level
			// tables now exist in the origin's page table.
			if err := t.Store(base, 8, 1); err != nil {
				return err
			}
			if err := t.Migrate(mem.NodeArm); err != nil {
				return err
			}
			t.BeginTimed()
			for p := 1; p <= pagesToTouch; p++ {
				if err := t.Store(base+pgtable.VirtAddr(p*mem.PageSize), 8, uint64(p)); err != nil {
					return err
				}
			}
			cycles = t.TimedCycles()
			return nil
		})
		if err != nil {
			return fmt.Errorf("ablation-remote-alloc heap: %w", err)
		}
		if disable {
			heapRow.WithoutCycles = cycles
		} else {
			heapRow.WithCycles = cycles
		}
		heapRow.Messages[i] = m.Messages()
		return nil
	})
	if err != nil {
		return nil, err
	}
	heapRow.Slowdown = ratio(float64(heapRow.WithoutCycles), float64(heapRow.WithCycles))
	r.Rows = append(r.Rows, heapRow)
	return r, nil
}

// Name implements Result.
func (r *RemoteAllocResult) Name() string {
	return "Ablation: PTE-level remote anonymous allocation (§6.4)"
}

// Render implements Result.
func (r *RemoteAllocResult) Render() string {
	tw := &tableWriter{header: []string{"Bench", "with (cycles)", "without (cycles)", "slowdown", "msgs with", "msgs without"}}
	for _, row := range r.Rows {
		tw.addRow(row.Benchmark, fi(int64(row.WithCycles)), fi(int64(row.WithoutCycles)),
			f2(row.Slowdown), fi(row.Messages[0]), fi(row.Messages[1]))
	}
	return tw.String()
}

// ShapeErrors implements Result: disabling the mechanism must cost time
// and messages (otherwise the design choice carried no weight).
func (r *RemoteAllocResult) ShapeErrors() []string {
	var errs []string
	for _, row := range r.Rows {
		if row.Slowdown <= 1 {
			errs = append(errs, fmt.Sprintf("%s: disabling remote allocation did not slow the run (%.2fx)", row.Benchmark, row.Slowdown))
		}
		if row.Messages[1] <= row.Messages[0] {
			errs = append(errs, fmt.Sprintf("%s: disabling remote allocation did not add messages (%d vs %d)",
				row.Benchmark, row.Messages[1], row.Messages[0]))
		}
	}
	return errs
}

// ------------------------------------------------- ablation: IPI latency

// IPIRow is one latency setting.
type IPIRow struct {
	IPIMicros float64
	Cycles    sim.Cycles
}

// IPISensitivityResult sweeps the cross-ISA IPI latency — the one
// simulator parameter the paper had to estimate from cross-NUMA
// measurements (§9.1.1) — against the futex ping-pong, the workload most
// exposed to it.
type IPISensitivityResult struct {
	Rows []IPIRow
}

// AblationIPI measures the futex wake-path latency at 0.5, 2 (the adopted
// value) and 8 µs IPI latency. The probe is wake latency rather than
// ping-pong throughput: throughput is non-monotone in IPI latency (slower
// wakes let the semaphore batch, amortizing the DSM-side costs), an
// emergent effect worth knowing but useless for sensitivity analysis.
func AblationIPI(scale Scale) (*IPISensitivityResult, error) {
	rounds := 50
	if scale == Quick {
		rounds = 20
	}
	sweep := []float64{0.5, 2, 8}
	r := &IPISensitivityResult{Rows: make([]IPIRow, len(sweep))}
	err := forEachRow(len(sweep), func(i int) error {
		us := sweep[i]
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS, IPIMicros: us})
		if err != nil {
			return err
		}
		res, err := microbench.RunWakeLatency(m, rounds)
		if err != nil {
			return fmt.Errorf("ablation-ipi %.1fµs: %w", us, err)
		}
		r.Rows[i] = IPIRow{IPIMicros: us, Cycles: sim.Cycles(res.MeanCycles)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Name implements Result.
func (r *IPISensitivityResult) Name() string {
	return "Ablation: cross-ISA IPI latency sensitivity (§9.1.1 parameter)"
}

// Render implements Result.
func (r *IPISensitivityResult) Render() string {
	tw := &tableWriter{header: []string{"IPI µs", "mean wake latency (cycles)"}}
	for _, row := range r.Rows {
		tw.addRow(f1(row.IPIMicros), fi(int64(row.Cycles)))
	}
	return tw.String()
}

// ShapeErrors implements Result: wake latency grows monotonically with
// IPI latency (the fused futex's wake path really rides the IPI).
func (r *IPISensitivityResult) ShapeErrors() []string {
	var errs []string
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Cycles <= r.Rows[i-1].Cycles {
			errs = append(errs, fmt.Sprintf("wake latency did not grow from %.1fµs to %.1fµs IPI",
				r.Rows[i-1].IPIMicros, r.Rows[i].IPIMicros))
		}
	}
	return errs
}
