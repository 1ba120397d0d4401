package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"time"
)

// Outcome records one spec's execution by the pool.
type Outcome struct {
	Spec   Spec
	Result Result // nil when Err is set
	Shape  []string
	Err    error
	// Wall is host wall-clock time spent in the spec's Run. It measures the
	// harness, not the simulation: the simulated cycle counts inside Result
	// are identical however long the host took.
	Wall time.Duration
}

// PoolOptions configures RunPool.
type PoolOptions struct {
	// Parallelism is the host-parallelism width for the run: how many
	// specs, and machine runs within them, execute at once (hostpool.go).
	// Zero or negative means runtime.GOMAXPROCS(0); 1 is sequential.
	Parallelism int
	// Timeout is the per-spec wall-clock limit; zero disables it. A spec
	// that exceeds it is reported as an error and abandoned: its goroutine
	// keeps simulating until it finishes on its own (the simulator has no
	// preemption points), outside the width, but its result is discarded.
	Timeout time.Duration
}

// RunPool executes specs on the host budget. Every spec builds its own
// machines and shares no state with the others, so they run in fully
// isolated goroutines with per-spec panic recovery and an optional
// wall-clock timeout. Outcomes are indexed exactly like specs regardless
// of completion order, which lets callers render deterministic,
// paper-ordered reports. Cancelling ctx fails specs that have not started
// with the context's error; specs already running are simulation-bound and
// finish on their own. RunPool sets the process's width for its duration,
// so concurrent pools share one budget.
func RunPool(ctx context.Context, specs []Spec, scale Scale, opts PoolOptions) []Outcome {
	prev := budget.setWidth(opts.Parallelism)
	defer budget.setWidth(prev)
	outcomes := make([]Outcome, len(specs))
	share(len(specs), func(i int) {
		if err := ctx.Err(); err != nil {
			outcomes[i] = Outcome{Spec: specs[i], Err: fmt.Errorf("experiments: %s: %w", specs[i].ID, err)}
			return
		}
		outcomes[i] = runOne(ctx, specs[i], scale, opts.Timeout)
	})
	return outcomes
}

// runOne executes a single spec in a fresh goroutine so that a panic is
// contained and a timeout or cancellation can abandon it.
func runOne(ctx context.Context, spec Spec, scale Scale, timeout time.Duration) Outcome {
	type ran struct {
		res Result
		err error
	}
	done := make(chan ran, 1)
	start := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- ran{err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
			}
		}()
		res, err := spec.Run(scale)
		done <- ran{res: res, err: err}
	}()

	var expired <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		expired = tm.C
	}

	out := Outcome{Spec: spec}
	select {
	case r := <-done:
		out.Wall = time.Since(start)
		if r.err != nil {
			out.Err = fmt.Errorf("experiments: %s: %w", spec.ID, r.err)
			return out
		}
		out.Result = r.res
		out.Shape = r.res.ShapeErrors()
	case <-expired:
		out.Wall = time.Since(start)
		out.Err = fmt.Errorf("experiments: %s: timed out after %v", spec.ID, timeout)
	case <-ctx.Done():
		out.Wall = time.Since(start)
		out.Err = fmt.Errorf("experiments: %s: %w", spec.ID, ctx.Err())
	}
	return out
}

// Report renders outcomes in order, in the exact format of a sequential
// RunAndReport loop, and returns the total shape-deviation count. On the
// first errored outcome it stops and returns that error; everything
// rendered so far matches what the sequential run would have printed
// before failing on the same spec.
func Report(w io.Writer, outcomes []Outcome) (int, error) {
	deviations := 0
	for _, o := range outcomes {
		if o.Err != nil {
			return deviations, o.Err
		}
		reportResult(w, o.Result, o.Shape)
		deviations += len(o.Shape)
	}
	return deviations, nil
}

// Summary aggregates one pool run for the one-line wall/cpu report.
type Summary struct {
	Specs      int
	Errors     int
	Deviations int
	// Wall is the whole pool's wall-clock time; CPU is the sum of per-spec
	// run times. CPU/Wall is the achieved parallel speedup.
	Wall time.Duration
	CPU  time.Duration
}

// Summarize folds outcomes and the pool's wall-clock time into a Summary.
func Summarize(outcomes []Outcome, wall time.Duration) Summary {
	s := Summary{Specs: len(outcomes), Wall: wall}
	for _, o := range outcomes {
		s.CPU += o.Wall
		if o.Err != nil {
			s.Errors++
			continue
		}
		s.Deviations += len(o.Shape)
	}
	return s
}

// Speedup returns CPU/Wall, the parallel efficiency of the run.
func (s Summary) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.CPU) / float64(s.Wall)
}

func (s Summary) String() string {
	line := fmt.Sprintf("%d specs, %d deviations, wall %v cpu %v (%.2fx)",
		s.Specs, s.Deviations,
		s.Wall.Round(time.Millisecond), s.CPU.Round(time.Millisecond),
		s.Speedup())
	if s.Errors > 0 {
		line += fmt.Sprintf(", %d error(s)", s.Errors)
	}
	return line
}

// RunAllParallel runs every registered spec through the pool at the given
// scale and renders the canonical report to w. The rendered report is
// byte-identical to a sequential RunAndReport loop over All(), whatever
// the parallelism. It returns the summary, the per-spec outcomes, and the
// first spec failure, if any.
func RunAllParallel(ctx context.Context, w io.Writer, scale Scale, opts PoolOptions) (Summary, []Outcome, error) {
	start := time.Now()
	outcomes := RunPool(ctx, All(), scale, opts)
	wall := time.Since(start)
	_, err := Report(w, outcomes)
	return Summarize(outcomes, wall), outcomes, err
}
