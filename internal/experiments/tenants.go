package experiments

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// This file is the multi-tenant isolation experiment: N tenants share one
// fused machine under the capability layer, and the shape checks prove the
// isolation claims rather than a performance crossover. A victim tenant
// runs a redisprod-style op loop (compute, append to its own log through
// the VFS, a futex syscall) and measures per-op latency; noisy tenants on
// the same and neighboring CPUs probe the victim's files (denied by the
// cap table), thrash the page cache and anonymous memory against tight
// budgets (refused at quota), and burn CPU under a small scheduler share.
// Mid-run a root admin task revokes a rogue's file capability; the rogue's
// already-open descriptor must fail its next write with a typed Revoked
// error. The claim under test: capability checks, budgets, and shares keep
// the victim's p50 within a fixed factor of its solo run at every swept
// tenant count, in both page-cache regimes.

// tenantsRegimes is the swept page-cache regime behind every tenant's log.
var tenantsRegimes = []vfs.Regime{vfs.RegimeFused, vfs.RegimePopcorn}

// tenantsCounts is the swept tenant count; 1 is the victim's solo
// baseline the SLO is measured against.
var tenantsCounts = []int{1, 2, 4}

// tenantsSLO bounds victim p50 degradation under noisy neighbors, as a
// multiple of the same regime's solo p50.
const tenantsSLO = 3

// tenantsParams sizes one run.
type tenantsParams struct {
	// VictimOps is the victim's measured op count.
	VictimOps int
	// NoisyIters is each rogue's iteration count.
	NoisyIters int
	// AdminDelay is the instruction count the admin retires before
	// revoking the first rogue's file capability.
	AdminDelay int64
}

func tenantsParamsFor(s Scale) tenantsParams {
	p := tenantsParams{VictimOps: 40, NoisyIters: 60, AdminDelay: 120_000}
	if s == Full {
		p = tenantsParams{VictimOps: 96, NoisyIters: 120, AdminDelay: 240_000}
	}
	return p
}

// TenantsRow is one (regime, tenant count) measurement.
type TenantsRow struct {
	Regime  vfs.Regime
	Tenants int
	// P50/P99 are victim per-op latencies; Done its completed ops.
	P50, P99 sim.Cycles
	Done     int
	// DeniedSeen / QuotaSeen / RevokedSeen count the typed *cap.CapError
	// values the rogue bodies actually observed, by reason.
	DeniedSeen, QuotaSeen, RevokedSeen int64
	// Names / Stats are the tenants (declaration order) and their kernel
	// counters after the run.
	Names []string
	Stats []cap.Stats
	// Engine holds driver counters when StatGate(GateEngine) was set.
	Engine map[string]int64
}

// TenantsResult is the experiment output.
type TenantsResult struct {
	Params tenantsParams
	Rows   []TenantsRow
}

// Tenants runs the isolation grid.
func Tenants(s Scale) (Result, error) {
	p := tenantsParamsFor(s)
	res := &TenantsResult{Params: p}
	type cell struct {
		regime vfs.Regime
		n      int
	}
	var cells []cell
	for _, regime := range tenantsRegimes {
		for _, n := range tenantsCounts {
			cells = append(cells, cell{regime, n})
		}
	}
	res.Rows = make([]TenantsRow, len(cells))
	err := forEachRow(len(cells), func(i int) error {
		row, err := tenantsRun(cells[i].regime, cells[i].n, p)
		if err != nil {
			return err
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunTenantsCell measures one (regime, tenant count) cell at the given
// scale. The stramash-sim -tenants mode builds its isolation gate from a
// solo baseline plus one multi-tenant cell.
func RunTenantsCell(regime vfs.Regime, n int, s Scale) (TenantsRow, error) {
	return tenantsRun(regime, n, tenantsParamsFor(s))
}

// TenantsSLOFactor is the victim p50 bound exported for the CLI gate.
const TenantsSLOFactor = tenantsSLO

// tenantsSpecs builds the machine's tenant declarations: one victim with
// room to work and full share, and n-1 rogues with tight budgets and a
// 10% CPU share.
func tenantsSpecs(n int) []machine.TenantSpec {
	specs := []machine.TenantSpec{{
		Name:   "victim",
		Budget: cap.Budget{Frames: 4096, CacheFrames: 4096, CPUShare: 100},
		Grants: []string{"file:/victim", "futex", "vma"},
	}}
	for i := 1; i < n; i++ {
		specs = append(specs, machine.TenantSpec{
			Name:   fmt.Sprintf("noisy%d", i),
			Budget: cap.Budget{Frames: 8, CacheFrames: 4, CPUShare: 10},
			Grants: []string{fmt.Sprintf("file:/noisy%d", i), "futex", "vma"},
		})
	}
	return specs
}

// tenantsCPU places tenant worker i (0 = victim) on a CPU of the 2-node,
// 2-cores-per-node machine. The first rogue shares the victim's core —
// that contention is what the CPU share protects against — and later
// rogues spread over the remaining CPUs.
func tenantsCPU(i int) (mem.NodeID, int) {
	switch i {
	case 0, 1:
		return mem.NodeX86, 0
	case 2:
		return mem.NodeArm, 0
	default:
		return mem.NodeX86, 1
	}
}

// capReason extracts the typed reason from err, or -1 if err carries no
// *cap.CapError.
func capReason(err error) int {
	var ce *cap.CapError
	if errors.As(err, &ce) {
		return int(ce.Reason)
	}
	return -1
}

// tenantsRun measures one cell.
func tenantsRun(regime vfs.Regime, n int, p tenantsParams) (TenantsRow, error) {
	m, err := machine.New(machine.Config{
		Model: mem.Shared, OS: machine.StramashOS, FileCache: regime,
		Cores: 2, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000,
		Tenants: tenantsSpecs(n),
	})
	if err != nil {
		return TenantsRow{}, err
	}
	row := TenantsRow{Regime: regime, Tenants: n}

	var lats []sim.Cycles
	payload := make([]byte, 96)
	for i := range payload {
		payload[i] = byte('a' + i%23)
	}
	victimNode, victimCore := tenantsCPU(0)
	specs := []machine.TaskSpec{{
		Name: "victim", Origin: victimNode, Core: victimCore, Tenant: "victim",
		Body: func(t *kernel.Task) error {
			if err := t.Mkdir("/victim"); err != nil {
				return err
			}
			fd, err := t.OpenFile("/victim/log", vfs.OWrite|vfs.OCreate)
			if err != nil {
				return err
			}
			word, err := t.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite|kernel.VMAAnon, "futex")
			if err != nil {
				return err
			}
			if err := t.Store(word, 8, 0); err != nil {
				return err
			}
			off := int64(0)
			for op := 0; op < p.VictimOps; op++ {
				start := t.Th.Now()
				t.Compute(2_000)
				if _, err := t.WriteFileAt(fd, payload, off); err != nil {
					return err
				}
				off += int64(len(payload))
				if _, err := t.FutexWake(word, 1); err != nil {
					return err
				}
				lats = append(lats, t.Th.Now()-start)
				row.Done++
			}
			return t.CloseFile(fd)
		},
	}}

	for i := 1; i < n; i++ {
		node, core := tenantsCPU(i)
		name := fmt.Sprintf("noisy%d", i)
		specs = append(specs, machine.TaskSpec{
			Name: name, Origin: node, Core: core, Tenant: name,
			Body: func(t *kernel.Task) error {
				if err := t.Mkdir("/" + name); err != nil {
					return err
				}
				fd, err := t.OpenFile("/"+name+"/x", vfs.OWrite|vfs.OCreate)
				if err != nil {
					return err
				}
				junk := make([]byte, 64)
				for iter := 0; iter < p.NoisyIters; iter++ {
					// Probe the victim's file: must be denied.
					if pfd, err := t.OpenFile("/victim/log", vfs.ORead); err == nil {
						_ = t.CloseFile(pfd)
						return fmt.Errorf("tenants: %s opened the victim's log", name)
					} else if capReason(err) == int(cap.Denied) {
						row.DeniedSeen++
					}
					// Thrash the page cache against the CacheFrames budget:
					// a fresh file page per iteration.
					if _, err := t.WriteFileAt(fd, junk, int64(iter)*mem.PageSize); err != nil {
						switch capReason(err) {
						case int(cap.BudgetExhausted):
							row.QuotaSeen++
						case int(cap.Revoked):
							row.RevokedSeen++
						default:
							return err
						}
					}
					// Hog anonymous memory against the Frames budget: one
					// fresh page per iteration, touched once.
					va, err := t.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite|kernel.VMAAnon, "hog")
					if err != nil {
						return err
					}
					if err := t.Store(va, 8, uint64(iter)); err != nil {
						if capReason(err) != int(cap.BudgetExhausted) {
							return err
						}
						row.QuotaSeen++
					}
					// Burn CPU under the 10% share.
					t.Compute(4_000)
				}
				return t.CloseFile(fd)
			},
		})
	}

	if n > 1 {
		// The admin is a root task (no tenant): it retires a fixed delay,
		// then revokes noisy1's file grant. The revocation cascades to the
		// descriptor capability noisy1 derived at open, so its next write
		// fails with a typed Revoked error.
		rogue := m.Tenant("noisy1")
		rogueCap, ok := m.Ctx.Caps.Table.Find(rogue, cap.File, "/noisy1")
		if !ok {
			return TenantsRow{}, fmt.Errorf("tenants: noisy1 file grant not found")
		}
		specs = append(specs, machine.TaskSpec{
			Name: "admin", Origin: mem.NodeArm, Core: 1,
			Body: func(t *kernel.Task) error {
				t.Compute(p.AdminDelay)
				_, err := t.RevokeCap(rogueCap)
				return err
			},
		})
	}

	if _, err := m.RunTasks(specs...); err != nil {
		return TenantsRow{}, err
	}

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	if len(lats) > 0 {
		row.P50 = lats[len(lats)*50/100]
		row.P99 = lats[len(lats)*99/100]
	}
	for _, ten := range m.Ctx.Caps.Tenants() {
		row.Names = append(row.Names, ten.Name)
		row.Stats = append(row.Stats, ten.Stats)
	}
	if StatGate(GateEngine) {
		row.Engine = m.EngineStats().Map()
	}
	return row, nil
}

// Name implements Result.
func (r *TenantsResult) Name() string {
	return "Multi-tenant isolation: capability denials, budgets and CPU shares vs. victim SLO"
}

// label names one cell the way Metrics keys and shape errors spell it.
func (row TenantsRow) label() string {
	return fmt.Sprintf("%v/%dt", row.Regime, row.Tenants)
}

// Render implements Result.
func (r *TenantsResult) Render() string {
	tw := &tableWriter{header: []string{"regime", "tenants", "victim ops", "p50 (cyc)", "p99 (cyc)", "denied", "quota", "revoked"}}
	for _, row := range r.Rows {
		var denials, quota, revocations int64
		for i, st := range row.Stats {
			if row.Names[i] == "victim" {
				continue
			}
			denials += st.Denials
			quota += st.QuotaHits
			revocations += st.Revocations
		}
		tw.addRow(
			row.Regime.String(),
			fmt.Sprintf("%d", row.Tenants),
			fmt.Sprintf("%d", row.Done),
			fmt.Sprintf("%d", int64(row.P50)),
			fmt.Sprintf("%d", int64(row.P99)),
			fmt.Sprintf("%d", denials),
			fmt.Sprintf("%d", quota),
			fmt.Sprintf("%d", revocations),
		)
	}
	return fmt.Sprintf("victim: %d ops (compute + log append + futex); rogues: %d iters of cross-tenant probes, cache/frame thrash at budget, CPU burn at 10%% share; root revokes a rogue file cap mid-run\n%s",
		r.Params.VictimOps, r.Params.NoisyIters, tw.String())
}

// row looks up one cell.
func (r *TenantsResult) row(regime vfs.Regime, n int) (TenantsRow, bool) {
	for _, row := range r.Rows {
		if row.Regime == regime && row.Tenants == n {
			return row, true
		}
	}
	return TenantsRow{}, false
}

// tenantStat sums one counter over the row's rogue tenants.
func (row TenantsRow) rogueStat(f func(cap.Stats) int64) int64 {
	var sum int64
	for i, st := range row.Stats {
		if row.Names[i] != "victim" {
			sum += f(st)
		}
	}
	return sum
}

// victimStats returns the victim tenant's counters.
func (row TenantsRow) victimStats() cap.Stats {
	for i, st := range row.Stats {
		if row.Names[i] == "victim" {
			return st
		}
	}
	return cap.Stats{}
}

// ShapeErrors implements Result: the victim completes every op in every
// cell and is never denied (it holds the grants it uses); multi-tenant
// cells actually exercise the isolation machinery (denials, quota hits,
// and a mid-run revocation the rogue observes as a typed error on a live
// descriptor); and the victim's p50 stays within the SLO multiple of the
// same regime's solo baseline at every swept tenant count.
func (r *TenantsResult) ShapeErrors() []string {
	var errs []string
	for _, regime := range tenantsRegimes {
		solo, okSolo := r.row(regime, 1)
		if !okSolo {
			errs = append(errs, fmt.Sprintf("%v: missing solo baseline", regime))
		} else if solo.P50 == 0 {
			errs = append(errs, fmt.Sprintf("%v/1t: solo p50 is zero", regime))
		}
		for _, n := range tenantsCounts {
			row, ok := r.row(regime, n)
			label := fmt.Sprintf("%v/%dt", regime, n)
			if !ok {
				errs = append(errs, "missing cell "+label)
				continue
			}
			if row.Done != r.Params.VictimOps {
				errs = append(errs, fmt.Sprintf("%s: victim completed %d ops, want %d",
					label, row.Done, r.Params.VictimOps))
			}
			if v := row.victimStats(); v.Denials != 0 {
				errs = append(errs, fmt.Sprintf("%s: victim was denied %d times despite holding its grants",
					label, v.Denials))
			}
			if n == 1 {
				continue
			}
			if d := row.rogueStat(func(s cap.Stats) int64 { return s.Denials }); d == 0 || row.DeniedSeen == 0 {
				errs = append(errs, fmt.Sprintf("%s: no cross-tenant denials (kernel %d, observed %d)",
					label, d, row.DeniedSeen))
			}
			if q := row.rogueStat(func(s cap.Stats) int64 { return s.QuotaHits }); q == 0 || row.QuotaSeen == 0 {
				errs = append(errs, fmt.Sprintf("%s: budgets never refused a charge (kernel %d, observed %d)",
					label, q, row.QuotaSeen))
			}
			if v := row.rogueStat(func(s cap.Stats) int64 { return s.Revocations }); v == 0 {
				errs = append(errs, fmt.Sprintf("%s: no capability was revoked", label))
			}
			if row.RevokedSeen == 0 {
				errs = append(errs, fmt.Sprintf("%s: rogue never observed a Revoked error on its live descriptor", label))
			}
			if okSolo && solo.P50 > 0 && row.P50 > tenantsSLO*solo.P50 {
				errs = append(errs, fmt.Sprintf("%s: victim p50 %d breaches %dx solo SLO (solo %d)",
					label, int64(row.P50), tenantsSLO, int64(solo.P50)))
			}
		}
	}
	return errs
}

// Metrics implements CycleMetrics: victim latency and op counts per cell;
// per-tenant capability counters ride along when StatGate(GateTenant) is
// set (stramash-bench -tenant-stats), keyed by tenant name.
func (r *TenantsResult) Metrics() map[string]int64 {
	m := make(map[string]int64)
	for _, row := range r.Rows {
		base := row.label()
		m["p50/"+base] = int64(row.P50)
		m["p99/"+base] = int64(row.P99)
		m["done/"+base] = int64(row.Done)
		m["denied_seen/"+base] = row.DeniedSeen
		m["quota_seen/"+base] = row.QuotaSeen
		m["revoked_seen/"+base] = row.RevokedSeen
		if StatGate(GateTenant) {
			for i, st := range row.Stats {
				tb := base + "/" + row.Names[i]
				m["caps_checked/"+tb] = st.CapsChecked
				m["denials/"+tb] = st.Denials
				m["revocations/"+tb] = st.Revocations
				m["frames_charged/"+tb] = st.FramesCharged
				m["cache_charged/"+tb] = st.CacheCharged
				m["quota_hits/"+tb] = st.QuotaHits
			}
		}
	}
	return m
}

// EngineStats implements EngineStatsSource: per-cell engine counters,
// keyed like Metrics. Nil unless the run captured them.
func (r *TenantsResult) EngineStats() map[string]int64 {
	var m map[string]int64
	for _, row := range r.Rows {
		if row.Engine == nil {
			continue
		}
		if m == nil {
			m = make(map[string]int64)
		}
		for k, v := range row.Engine {
			m[k+"/"+row.label()] = v
		}
	}
	return m
}
