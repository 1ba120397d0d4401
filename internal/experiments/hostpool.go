package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The host-parallelism width is how many goroutines may run simulation
// work at once: RunPool's specs and the independent machine runs (rows)
// inside each experiment draw on one budget. RunPool sets the width from
// PoolOptions.Parallelism for its duration; a caller that runs a Spec
// directly gets the default, runtime.GOMAXPROCS(0). Every row builds and
// drives a fully isolated machine and stores its result by row index, so
// results are byte-identical at any width; the width only trades host
// cores (and the memory of the machines in flight) for wall time.
//
// The budget holds width-1 tokens. A goroutine always runs its own work
// without one; it takes a token only to start a helper beside it, and a
// row that finds no free token runs inline on the goroutine that claimed
// it. A goroutine that has run out of rows and waits for its helpers
// lends its own slot to the budget meanwhile, so rows elsewhere (a long
// spec on the other worker) can use it, and takes a slot back before it
// continues. Only that take-back waits, and only for a slot that some
// running goroutine will free, so nesting (rows inside pooled specs, grids
// inside rows) never deadlocks and never runs more than width bodies at
// once, and width 1 is strictly sequential.
var budget = newHostBudget()

func newHostBudget() *hostBudget {
	b := &hostBudget{}
	b.freed.L = &b.mu
	return b
}

type hostBudget struct {
	mu    sync.Mutex
	freed sync.Cond // signalled when busy drops
	width int       // <= 0 means runtime.GOMAXPROCS(0)
	busy  int       // running goroutines beyond the callers' own, lent slots counted negative
}

// setWidth sets the width and returns the previous setting.
func (b *hostBudget) setWidth(w int) (prev int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, b.width = b.width, w
	return prev
}

// spare reports whether another goroutine may start; b.mu must be held.
func (b *hostBudget) spare() bool {
	w := b.width
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return b.busy < w-1
}

func (b *hostBudget) tryAcquire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.spare() {
		return false
	}
	b.busy++
	return true
}

// release gives back a helper's token, or lends a waiting caller's slot.
func (b *hostBudget) release() {
	b.mu.Lock()
	b.busy--
	b.mu.Unlock()
	b.freed.Broadcast()
}

// reclaim takes back a lent slot, waiting until one is free.
func (b *hostBudget) reclaim() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.spare() {
		b.freed.Wait()
	}
	b.busy++
}

// share runs body(0..n-1) on the calling goroutine plus as many helpers as
// the budget grants. Indices are claimed in increasing order; whoever
// claims one, and finds another left and a token free, starts a helper
// first, so tokens freed anywhere are picked up at the next claim. A panic
// in a helper is re-raised on the caller once every body has finished,
// where the caller's own recovery (RunPool's per-spec isolation) sees it.
func share(n int, body func(i int)) {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
		helped   atomic.Bool // whether any helper started
		work     func()
	)
	work = func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if i+1 < n && budget.tryAcquire() {
				helped.Store(true)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer budget.release()
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &r)
						}
					}()
					work()
				}()
			}
			body(i)
		}
	}
	work()
	if helped.Load() {
		budget.release()
		wg.Wait()
		budget.reclaim()
	}
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}

// rowHook, when set by a test, is called with +1 as a row body starts and
// -1 as it ends.
var rowHook func(delta int)

// forEachRow runs n independent row builders on the host budget and
// returns the first error by row index (not completion order), so failures
// are as deterministic as results.
func forEachRow(n int, run func(i int) error) error {
	errs := make([]error, n)
	share(n, func(i int) {
		if rowHook != nil {
			rowHook(1)
			defer rowHook(-1)
		}
		errs[i] = run(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
