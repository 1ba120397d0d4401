// Package stramash is a from-scratch Go reproduction of "Stramash: A
// Fused-Kernel Operating System For Cache-Coherent, Heterogeneous-ISA
// Platforms" (ASPLOS 2025): a deterministic architectural simulation of a
// two-ISA (x86-64 + AArch64) cache-coherent platform, two operating-system
// personalities on top of it — the shared-nothing multiple-kernel baseline
// (Popcorn-style) and the paper's shared-mostly fused-kernel design — and
// the full evaluation harness that regenerates every table and figure of
// the paper.
//
// The package is a facade: it re-exports the stable surface of the
// internal packages so applications can build and drive simulated machines
// without importing internals.
//
// # Quick start
//
//	m, err := stramash.NewMachine(stramash.MachineConfig{
//	    Model: stramash.ModelShared,
//	    OS:    stramash.FusedKernel,
//	})
//	if err != nil { ... }
//	res, err := m.RunSingle("hello", stramash.NodeX86, func(t *stramash.Task) error {
//	    buf, err := t.Proc.Mmap(1<<20, stramash.VMARead|stramash.VMAWrite, "heap")
//	    if err != nil { return err }
//	    if err := t.Store(buf, 8, 42); err != nil { return err }
//	    if err := t.Migrate(stramash.NodeArm); err != nil { return err }
//	    v, err := t.Load(buf, 8) // read on the other ISA, no copies
//	    ...
//	})
package stramash

import (
	"context"
	"io"

	"repro/internal/cap"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/npb"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Machine construction.
type (
	// MachineConfig selects the hardware model, OS personality and
	// machine parameters.
	MachineConfig = machine.Config
	// Machine is an assembled two-ISA system.
	Machine = machine.Machine
	// TaskSpec describes one task for Machine.RunTasks.
	TaskSpec = machine.TaskSpec
	// TaskResult reports one finished task.
	TaskResult = machine.Result
	// Task is a simulated thread: the workload-facing API.
	Task = kernel.Task
	// Process is a simulated user process.
	Process = kernel.Process
	// Cycles is simulated time in CPU cycles.
	Cycles = sim.Cycles
	// VirtAddr is a virtual address in a process's address space.
	VirtAddr = pgtable.VirtAddr
	// OSKind selects an operating-system personality.
	OSKind = machine.OSKind
	// MemModel selects a hardware memory configuration.
	MemModel = mem.Model
	// NodeID identifies a processor complex.
	NodeID = mem.NodeID
	// SchedPolicy selects how tasks share the simulated CPUs.
	SchedPolicy = kernel.SchedPolicy
	// ClonedTask is a sibling task created by Task.Clone, joinable with
	// ClonedTask.Join.
	ClonedTask = kernel.ClonedTask
)

// NewMachine builds and boots a simulated machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// Hardware memory models (Figure 3 of the paper).
const (
	// ModelSeparated: per-node memories, coherent interconnect (NUMA/CXL).
	ModelSeparated = mem.Separated
	// ModelShared: per-node memories plus a CXL 3.0 shared pool.
	ModelShared = mem.Shared
	// ModelFullyShared: one memory, single-chip integration.
	ModelFullyShared = mem.FullyShared
)

// Operating-system personalities.
const (
	// SingleKernel runs the app on one kernel, no migration ("Vanilla").
	SingleKernel = machine.VanillaOS
	// MultiKernelTCP is the shared-nothing baseline over a network path.
	MultiKernelTCP = machine.PopcornTCP
	// MultiKernelSHM is the shared-nothing baseline over shared-memory
	// message rings.
	MultiKernelSHM = machine.PopcornSHM
	// FusedKernel is the paper's contribution: shared-mostly kernels.
	FusedKernel = machine.StramashOS
)

// Scheduler policies for MachineConfig.Sched.
const (
	// SchedShared lets every runnable task progress concurrently; the
	// per-core CPUs are pure bookkeeping and cost nothing (the default,
	// preserving single-task timing exactly).
	SchedShared = kernel.SchedShared
	// SchedTimeSlice enforces one task per CPU with per-core FIFO run
	// queues and deterministic round-robin preemption at a
	// retired-instruction quantum (MachineConfig.SchedQuantum).
	SchedTimeSlice = kernel.SchedTimeSlice
)

// Nodes of the two-ISA platform.
const (
	// NodeX86 is the x86-64 processor complex.
	NodeX86 = mem.NodeX86
	// NodeArm is the AArch64 processor complex.
	NodeArm = mem.NodeArm
)

// VMA permission flags for Process.Mmap.
const (
	// VMARead marks an area readable.
	VMARead = kernel.VMARead
	// VMAWrite marks an area writable.
	VMAWrite = kernel.VMAWrite
	// VMAExec marks an area executable.
	VMAExec = kernel.VMAExec
)

// File system. Every machine boots with one system-wide in-memory file
// system whose data pages live in simulated physical memory; Task methods
// (OpenFile, ReadFileAt, WriteFileAt, MmapFile, ...) are the syscall
// surface. MachineConfig.FileCache picks the page-cache coherence regime.
type (
	// FileCacheRegime selects how the two kernels keep file pages coherent.
	FileCacheRegime = vfs.Regime
	// OpenFlags are Task.OpenFile mode bits.
	OpenFlags = vfs.OpenFlags
	// FileStats are the page-cache counters (Machine.FileStats).
	FileStats = vfs.Stats
)

// Page-cache coherence regimes for MachineConfig.FileCache.
const (
	// FileCacheAuto follows the OS personality: fused kernels share one
	// page cache, multiple-kernel baselines replicate per kernel.
	FileCacheAuto = vfs.RegimeAuto
	// FileCacheFused is one shared page cache reached by both ISAs through
	// cache-coherent loads and stores.
	FileCacheFused = vfs.RegimeFused
	// FileCachePopcorn keeps a per-kernel page cache with DSM-style
	// invalidate/writeback messages between the kernels.
	FileCachePopcorn = vfs.RegimePopcorn
)

// Open flags for Task.OpenFile.
const (
	// ORead opens for reading.
	ORead = vfs.ORead
	// OWrite opens for writing.
	OWrite = vfs.OWrite
	// ORDWR opens for both.
	ORDWR = vfs.ORDWR
	// OCreate creates the file if absent.
	OCreate = vfs.OCreate
	// OTrunc truncates on open.
	OTrunc = vfs.OTrunc
	// OAppend positions sequential writes at the end.
	OAppend = vfs.OAppend
)

// Multi-tenancy. MachineConfig.Tenants boots the machine with a capability
// namespace: every task carries its tenant (TaskSpec.Tenant), every
// privileged syscall is checked against the tenant's grants deny-by-default,
// and resource budgets bound anonymous frames, page-cache frames, and the
// scheduler share. Machines without tenants keep the root fast path — the
// gates cost one nil check and zero simulated cycles.
type (
	// TenantSpec declares one tenant in MachineConfig.Tenants: name,
	// budget, and textual capability grants ("file:/prefix", "sock",
	// "spawn", "futex", "vma").
	TenantSpec = machine.TenantSpec
	// TenantBudget is a tenant's resource envelope; zero fields mean
	// unlimited.
	TenantBudget = cap.Budget
	// Tenant is one isolation domain (Machine.Tenant).
	Tenant = cap.Tenant
	// TenantStats are a tenant's kernel counters: caps checked, denials,
	// revocations, frames/cache charged, quota hits.
	TenantStats = cap.Stats
	// CapError is the typed error every capability gate returns: who was
	// refused, on which capability, and why.
	CapError = cap.CapError
	// CapID names one capability table entry (Task.RevokeCap).
	CapID = cap.CapID
)

// CapError reasons.
const (
	// CapDenied: the tenant holds no capability covering the access.
	CapDenied = cap.Denied
	// CapRevoked: the capability (or an ancestor) was revoked.
	CapRevoked = cap.Revoked
	// CapBudgetExhausted: a resource charge would exceed the budget.
	CapBudgetExhausted = cap.BudgetExhausted
)

// Capability kinds, for looking entries up in the table (for example to
// pick a revocation target with Machine.Ctx.Caps.Table.Find).
const (
	// CapFileKind guards path and descriptor access.
	CapFileKind = cap.File
	// CapSockKind guards socket syscalls.
	CapSockKind = cap.Sock
	// CapVMAKind guards anonymous mmap.
	CapVMAKind = cap.VMA
	// CapFutexKind guards futex wait/wake.
	CapFutexKind = cap.Futex
	// CapSpawnKind guards clone.
	CapSpawnKind = cap.Spawn
)

// Clusters. Several machines join one deterministically-arbitrated switch
// and one clock universe; kernel socket syscalls (Task.SocketListen,
// SocketConnect, SendSock, RecvSock, ...) carry byte streams between them
// through simulated NIC descriptor rings and a TCP-lite transport.
type (
	// Cluster is a set of machines joined by one switch fabric.
	Cluster = machine.Cluster
	// ClusterTask places one TaskSpec on one cluster machine.
	ClusterTask = machine.ClusterTask
	// FabricConfig parameterizes the cluster switch (latency, bandwidth,
	// retransmit backoff).
	FabricConfig = net.FabricConfig
	// NICConfig sizes a machine's NIC descriptor rings
	// (MachineConfig.NIC).
	NICConfig = net.NICConfig
	// NICStats are one machine's device counters (Cluster.NICStats).
	NICStats = net.NICStats
	// NetAddr addresses a socket endpoint: (machine index, port).
	NetAddr = net.Addr
)

// NewCluster builds and boots the given machines on one shared simulation
// engine, attaching one NIC per machine to a fresh switch fabric. Machine
// i of the returned cluster is addressable as NetAddr{Mach: i}.
func NewCluster(cfgs []MachineConfig, fcfg FabricConfig) (*Cluster, error) {
	return machine.NewCluster(cfgs, fcfg)
}

// DefaultFabricConfig returns the evaluation switch parameters.
func DefaultFabricConfig() FabricConfig { return net.DefaultFabricConfig() }

// Workloads.
type (
	// Workload is a runnable benchmark (the NPB kernels).
	Workload = npb.Workload
	// WorkloadClass scales a workload.
	WorkloadClass = npb.Class
)

// Workload classes.
const (
	// ClassTiny is unit-test sized.
	ClassTiny = npb.ClassT
	// ClassSmall is the evaluation size.
	ClassSmall = npb.ClassS
	// ClassWide is the larger cache-sensitivity size.
	ClassWide = npb.ClassW
)

// NewWorkload returns one of the NPB benchmarks: "IS", "CG", "MG", "FT".
func NewWorkload(name string, class WorkloadClass) (Workload, error) {
	return npb.New(name, class)
}

// WorkloadNames lists the available benchmarks.
func WorkloadNames() []string { return npb.Names() }

// Experiments.
type (
	// Experiment names one table/figure runner.
	Experiment = experiments.Spec
	// ExperimentResult is a finished experiment.
	ExperimentResult = experiments.Result
	// ExperimentScale selects quick or full workloads.
	ExperimentScale = experiments.Scale
	// ExperimentOutcome records one experiment's run on the pool.
	ExperimentOutcome = experiments.Outcome
	// ExperimentSummary aggregates a whole-suite run (specs, deviations,
	// wall/cpu time).
	ExperimentSummary = experiments.Summary
	// ExperimentPoolOptions bounds parallelism and per-spec timeouts.
	ExperimentPoolOptions = experiments.PoolOptions
)

// Experiment scales.
const (
	// ScaleQuick runs CI-sized workloads.
	ScaleQuick = experiments.Quick
	// ScaleFull runs evaluation-sized workloads.
	ScaleFull = experiments.Full
)

// Experiments returns every table/figure runner in paper order.
func Experiments() []Experiment { return experiments.All() }

// FindExperiment looks an experiment up by id (e.g. "fig9", "table3").
func FindExperiment(id string) (Experiment, bool) { return experiments.Find(id) }

// RunAll regenerates every table and figure at the given scale with
// parallelism experiments and machine runs in flight (<= 0 means
// GOMAXPROCS), writing the canonical report to w. Each experiment runs
// against its own isolated machines, so the report is byte-identical at
// any parallelism; cancelling ctx fails experiments that have not started
// yet. The summary carries the deviation count and wall/cpu times; err is
// the first experiment failure.
func RunAll(ctx context.Context, w io.Writer, scale ExperimentScale, parallelism int) (ExperimentSummary, error) {
	s, _, err := experiments.RunAllParallel(ctx, w, scale, ExperimentPoolOptions{Parallelism: parallelism})
	return s, err
}

// RunExperiments runs an arbitrary spec subset on the pool and returns the
// outcomes in spec order.
func RunExperiments(ctx context.Context, specs []Experiment, scale ExperimentScale, opts ExperimentPoolOptions) []ExperimentOutcome {
	return experiments.RunPool(ctx, specs, scale, opts)
}
