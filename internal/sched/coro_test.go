package sched

import (
	"errors"
	"sync"
	"testing"
	"time"

	"parcoach/internal/monitor"
)

// runThreads drives bodies as the simulated runtimes do: one registered
// thread per body, spawned through the monitor, each ending with
// ThreadExited unless it panics first. It returns once every body has
// left (returned or panicked) and the controller has recycled.
func runThreads(t *testing.T, s Scheduler, bodies ...func(g *Gate)) *monitor.Monitor {
	t.Helper()
	mon := monitor.New()
	ctl := NewController(s, len(bodies))
	ctl.Bind(mon)
	for range bodies {
		mon.ThreadStarted()
	}
	var wg sync.WaitGroup
	for i, body := range bodies {
		g := ctl.ProcGate(i)
		wg.Add(1)
		mon.Spawn(func() {
			defer wg.Done()
			body(g)
			mon.ThreadExited()
		})
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		ctl.Recycle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serialized run did not finish")
	}
	return mon
}

// TestCoroutineHandoffOrder: the driver resumes exactly the scheduler's
// pick, so two yielding threads under round-robin strictly alternate.
func TestCoroutineHandoffOrder(t *testing.T) {
	var order []ThreadID
	body := func(g *Gate) {
		for i := 0; i < 3; i++ {
			order = append(order, g.ID())
			g.Yield(i + 1)
		}
	}
	mon := runThreads(t, NewRoundRobin(), body, body)
	if err := mon.Err(); err != nil {
		t.Fatal(err)
	}
	want := []ThreadID{0, 1, 0, 1, 0, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestCoroutinePanicUnwindsRun: a panic that escapes a thread body
// surfaces at the driver, which aborts the run with it and still runs
// every other thread to its exit.
func TestCoroutinePanicUnwindsRun(t *testing.T) {
	var exited bool
	mon := runThreads(t, NewRoundRobin(),
		func(g *Gate) {
			g.Yield(1)
			panic("boom")
		},
		func(g *Gate) {
			for i := 0; i < 1000 && !g.ctl.mon.Aborted(); i++ {
				g.Yield(2)
			}
			exited = true
		},
	)
	var tp *ThreadPanic
	if err := mon.Err(); !errors.As(err, &tp) || tp.Value != "boom" || len(tp.Stack) == 0 {
		t.Fatalf("run error = %v, want the thread's panic", err)
	}
	if !exited {
		t.Fatal("the surviving thread was not run to its exit after the panic")
	}
}
