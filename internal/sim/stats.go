package sim

// EngineStats counts how the engine spent its grants. All counters are
// host-side observability state: simulated code never reads them, so
// collecting them cannot perturb the schedule. They are deterministic —
// every segment boundary is a pure function of simulated clocks — but they
// describe the host driver rather than the model, so they stay out of
// experiment Metrics() and rendered output.
type EngineStats struct {
	// SerialSegments counts segments granted: every run of a thread from one
	// yield point, block or start to the next.
	SerialSegments int64
	// Switches counts grants that resumed a different goroutine — the host
	// cost of the hand-offs. A thread that is still first in (clock, ID)
	// order when its segment ends keeps running, and only a hand-off to
	// another thread (or Run's first grant) is a switch.
	Switches int64
	// SerialCycles sums the simulated cycles advanced within segments.
	SerialCycles Cycles

	// SoloSegments, DomainSegments, Parks, Phases, PhaseDomains, SoloCycles
	// and DomainCycles are always zero. They counted the grants of a
	// host-parallel driver that no longer exists, and are kept only because
	// the benchmark's counter reader still reads them.
	SoloSegments   int64
	DomainSegments int64
	Parks          int64
	Phases         int64
	PhaseDomains   int64
	SoloCycles     Cycles
	DomainCycles   Cycles
}

// Handoffs returns the total segments granted. Only Switches of them resume
// another goroutine.
func (s EngineStats) Handoffs() int64 { return s.SerialSegments }

// Add accumulates o into s (cluster experiments aggregate one engine per
// cell into a per-row total).
func (s *EngineStats) Add(o EngineStats) {
	s.SerialSegments += o.SerialSegments
	s.Switches += o.Switches
	s.SerialCycles += o.SerialCycles
}

// Map flattens the counters for machine-readable export (stramash-bench
// -json writes keys in sorted order).
func (s EngineStats) Map() map[string]int64 {
	return map[string]int64{
		"serial_segments": s.SerialSegments,
		"switches":        s.Switches,
		"serial_cycles":   int64(s.SerialCycles),
		"handoffs":        s.Handoffs(),
	}
}
