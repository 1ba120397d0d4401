package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// These tests pin the sequential driver's direct hand-off: the token holder
// picks its own successor at every yield point, block and exit. The pick
// must be exactly the (clock, ID) order a driver loop would make, the
// zero-switch self-continuation must really avoid goroutine switches, and
// every way a run can end must still reach Run.

// runWithin runs e.Run and fails the test if it has not returned within a
// generous bound, so a hand-off that strands the token fails instead of
// hanging the suite.
func runWithin(t *testing.T, e *Engine) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return: the execution token was stranded")
		return nil
	}
}

// TestHandOffWakeTieGoesToLowerID: a yielder that has just woken a
// lower-ID thread at its own clock must hand over to it, not keep running
// on the tie; one cycle later the yielder is first again and keeps going.
func TestHandOffWakeTieGoesToLowerID(t *testing.T) {
	for _, tc := range []struct {
		latency Cycles
		want    string
	}{
		{0, "waiter@100 waker@100"},
		{1, "waker@100 waiter@101"},
	} {
		e := NewEngine()
		var order []string
		log := func(th *Thread) { order = append(order, fmt.Sprintf("%s@%d", th.Name, th.Now())) }
		waiter := e.Spawn("waiter", 0, func(th *Thread) {
			th.Block("tie")
			log(th)
		})
		e.Spawn("waker", 0, func(th *Thread) {
			th.Advance(100)
			e.Wake(waiter, th.Now()+tc.latency)
			th.YieldPoint()
			log(th)
		})
		if err := runWithin(t, e); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(order, " "); got != tc.want {
			t.Errorf("wake latency %d: order %q, want %q", tc.latency, got, tc.want)
		}
	}
}

// TestYieldSwitchCounts: a thread alone never switches goroutines however
// often it yields, and two threads in lockstep switch once per yield.
func TestYieldSwitchCounts(t *testing.T) {
	const n = 1000

	solo := NewEngine()
	solo.Spawn("solo", 0, func(th *Thread) {
		for i := 0; i < n; i++ {
			th.Advance(1)
			th.YieldPoint()
		}
	})
	if err := runWithin(t, solo); err != nil {
		t.Fatal(err)
	}
	// One segment per yield plus the last; the only switch is Run's grant
	// of the first segment.
	if s := solo.Stats; s.SerialSegments != n+1 || s.Switches != 1 {
		t.Errorf("solo: %d segments, %d switches; want %d segments, 1 switch",
			s.SerialSegments, s.Switches, n+1)
	}

	pp := NewEngine()
	for _, name := range []string{"ping", "pong"} {
		pp.Spawn(name, 0, func(th *Thread) {
			for i := 0; i < n; i++ {
				th.Advance(1)
				th.YieldPoint()
			}
		})
	}
	if err := runWithin(t, pp); err != nil {
		t.Fatal(err)
	}
	// Each of the 2n yields hands over to the other thread; add Run's
	// first grant and ping's exit handing over to pong.
	if s := pp.Stats; s.Switches != 2*n+2 {
		t.Errorf("ping-pong: %d switches, want %d", s.Switches, 2*n+2)
	}
}

// TestPanicMidRunReturnsError: a thread that panics while others are
// runnable and blocked ends the run with its error, not a hang.
func TestPanicMidRunReturnsError(t *testing.T) {
	e := NewEngine()
	e.Quantum = 10
	e.Spawn("sleeper", 0, func(th *Thread) { th.Block("never-woken") })
	e.Spawn("spinner", 0, func(th *Thread) {
		for {
			th.Advance(10)
		}
	})
	e.Spawn("bomb", 0, func(th *Thread) {
		th.Advance(55)
		panic("mid-run failure")
	})
	err := runWithin(t, e)
	if err == nil || !strings.Contains(err.Error(), `"bomb" panicked: mid-run failure`) {
		t.Fatalf("Run returned %v, want bomb's panic", err)
	}
}

// TestDeadlockReportsSortedBlockedSet: when the last runnable thread
// blocks or exits, Run reports every blocked thread, sorted.
func TestDeadlockReportsSortedBlockedSet(t *testing.T) {
	e := NewEngine()
	e.Spawn("zeta", 0, func(th *Thread) { th.Block("z-wait") })
	e.Spawn("alpha", 5, func(th *Thread) { th.Block("a-wait") })
	e.Spawn("worker", 0, func(th *Thread) {
		th.Advance(100)
		th.YieldPoint()
	})
	e.Spawn("mid", 200, func(th *Thread) { th.Block("m-wait") })
	err := runWithin(t, e)
	want := "sim: deadlock, blocked threads: [alpha(a-wait) mid(m-wait) zeta(z-wait)]"
	if err == nil || err.Error() != want {
		t.Fatalf("Run returned %v, want %q", err, want)
	}
}

// TestRunTwiceWithSpawnBetween: a run that ends in deadlock leaves the
// blocked thread waiting for the token; a thread spawned before the second
// Run wakes it, and the second Run completes both.
func TestRunTwiceWithSpawnBetween(t *testing.T) {
	e := NewEngine()
	var resumedAt Cycles = -1
	sleeper := e.Spawn("sleeper", 0, func(th *Thread) {
		th.Advance(10)
		th.Block("first-run")
		resumedAt = th.Now()
	})
	if err := runWithin(t, e); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("first Run returned %v, want a deadlock", err)
	}
	e.Spawn("waker", e.MaxTime(), func(th *Thread) {
		th.Advance(40)
		e.Wake(sleeper, th.Now())
	})
	if err := runWithin(t, e); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if resumedAt != 50 {
		t.Errorf("sleeper resumed at %d, want 50", resumedAt)
	}
	if !e.allDone() {
		t.Error("threads left unfinished after the second Run")
	}
}

// TestSpawnFromRunningThreadAtSpawnerClock: a child spawned at the
// spawner's clock ties with it and loses on ID, so the spawner keeps the
// token across its next yield and the child runs once the spawner is
// ahead.
func TestSpawnFromRunningThreadAtSpawnerClock(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("parent", 0, func(th *Thread) {
		th.Advance(50)
		e.Spawn("child", th.Now(), func(c *Thread) {
			order = append(order, fmt.Sprintf("child@%d", c.Now()))
		})
		th.YieldPoint()
		order = append(order, "parent-tie")
		th.Advance(10)
		th.YieldPoint()
		order = append(order, "parent-end")
	})
	if err := runWithin(t, e); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "parent-tie child@50 parent-end"; got != want {
		t.Errorf("order %q, want %q", got, want)
	}
}

// TestPreemptHookBlocks: the preemption hook runs when a yielder keeps the
// token without a switch, and a Block inside it hands the token on and
// resumes the hook once woken.
func TestPreemptHookBlocks(t *testing.T) {
	e := NewEngine()
	var order []string
	var a *Thread
	a = e.Spawn("a", 0, func(th *Thread) {
		preempted := false
		th.SetPreempt(func() {
			if !preempted {
				preempted = true
				order = append(order, fmt.Sprintf("a-preempted@%d", th.Now()))
				th.Block("preempted")
			}
		})
		th.Advance(10)
		th.YieldPoint()
		order = append(order, fmt.Sprintf("a-resumed@%d", th.Now()))
	})
	e.Spawn("b", 1000, func(th *Thread) {
		order = append(order, "b")
		e.Wake(a, th.Now())
	})
	if err := runWithin(t, e); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "a-preempted@10 b a-resumed@1000"; got != want {
		t.Errorf("order %q, want %q", got, want)
	}
}

// goldenBlockWake is the trace event stream of blockWakeProgram, recorded
// from the driver-loop engine that preceded the direct hand-off. Every
// event — switches included — must stay byte-identical.
const goldenBlockWake = `0 thread-spawn node=-1 core=0 tid=0 va=0x0 pa=0x0 arg=0 cost=0 name="producer"
0 thread-spawn node=-1 core=0 tid=1 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-a"
5 thread-spawn node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-b"
0 thread-switch node=-1 core=0 tid=0 va=0x0 pa=0x0 arg=0 cost=0 name="producer"
15 thread-wake node=-1 core=0 tid=1 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-a"
5 thread-switch node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-b"
5 thread-block node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="empty"
12 thread-switch node=-1 core=0 tid=0 va=0x0 pa=0x0 arg=0 cost=0 name="producer"
34 thread-wake node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-b"
15 thread-switch node=-1 core=0 tid=1 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-a"
35 thread-block node=-1 core=0 tid=1 va=0x0 pa=0x0 arg=0 cost=0 name="empty"
31 thread-switch node=-1 core=0 tid=0 va=0x0 pa=0x0 arg=0 cost=0 name="producer"
60 thread-wake node=-1 core=0 tid=1 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-a"
34 thread-switch node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-b"
63 thread-block node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="empty"
57 thread-switch node=-1 core=0 tid=0 va=0x0 pa=0x0 arg=0 cost=0 name="producer"
60 thread-switch node=-1 core=0 tid=1 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-a"
80 thread-done node=-1 core=0 tid=1 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-a"
90 thread-switch node=-1 core=0 tid=0 va=0x0 pa=0x0 arg=0 cost=0 name="producer"
93 thread-wake node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-b"
90 thread-done node=-1 core=0 tid=0 va=0x0 pa=0x0 arg=0 cost=0 name="producer"
93 thread-switch node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-b"
122 thread-done node=-1 core=0 tid=2 va=0x0 pa=0x0 arg=0 cost=0 name="consumer-b"
`

// blockWakeProgram runs a producer and two consumers that hand items over
// through Block and Wake, interleaved with yields and quantum expiries,
// and returns the trace text.
func blockWakeProgram(t *testing.T) string {
	t.Helper()
	buf := trace.NewBuffer()
	e := NewEngine()
	e.Quantum = 30
	e.Tracer = buf
	var consumers [2]*Thread
	var queue [2]int
	e.Spawn("producer", 0, func(th *Thread) {
		for i := 0; i < 4; i++ {
			th.Advance(Cycles(12 + 7*i))
			c := i % 2
			queue[c]++
			e.Wake(consumers[c], th.Now()+3)
			th.YieldPoint()
		}
	})
	for c, name := range []string{"consumer-a", "consumer-b"} {
		consumers[c] = e.Spawn(name, Cycles(5*c), func(th *Thread) {
			for got := 0; got < 2; {
				if queue[c] == 0 {
					th.Block("empty")
					continue
				}
				queue[c]--
				got++
				th.Advance(Cycles(20 + 9*c))
			}
		})
	}
	if err := runWithin(t, e); err != nil {
		t.Fatal(err)
	}
	return buf.Text()
}

func TestBlockWakeTraceGolden(t *testing.T) {
	if got := blockWakeProgram(t); got != goldenBlockWake {
		t.Errorf("trace diverged from the golden stream:\n--- got\n%s--- want\n%s", got, goldenBlockWake)
	}
}

// TestSteadyStateYieldZeroAllocs: neither a self-continuing yield nor a
// hand-off to another thread may allocate.
func TestSteadyStateYieldZeroAllocs(t *testing.T) {
	for _, partner := range []bool{false, true} {
		e := NewEngine()
		var allocs float64
		done := false
		e.Spawn("measured", 0, func(th *Thread) {
			step := func() {
				th.Advance(1)
				th.YieldPoint()
			}
			step() // warm
			allocs = testing.AllocsPerRun(500, step)
			done = true
		})
		if partner {
			e.Spawn("partner", 0, func(th *Thread) {
				for !done {
					th.Advance(1)
					th.YieldPoint()
				}
			})
		}
		if err := runWithin(t, e); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("partner=%v: a steady-state yield allocates %.2f objects, want 0", partner, allocs)
		}
	}
}

// BenchmarkEngineYieldSelf: one thread yielding alone — under Run every
// yield keeps the token without a goroutine switch.
func BenchmarkEngineYieldSelf(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("solo", 0, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Advance(1)
			th.YieldPoint()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineYieldPingPong: two threads in lockstep, so every yield
// hands the token to the other goroutine; ns/op is one hand-off.
func BenchmarkEngineYieldPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for _, quota := range []int{b.N - b.N/2, b.N / 2} {
		e.Spawn("yielder", 0, func(th *Thread) {
			for i := 0; i < quota; i++ {
				th.Advance(1)
				th.YieldPoint()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
