package interp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"parcoach/internal/chaos"
	"parcoach/internal/leakcheck"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// spinSrc loops far past any test's patience: the program every
// cancellation and watchdog test needs to interrupt. The bound keeps it
// a terminating program in principle (no special-casing in the
// interpreter), just one that never finishes before an abort.
const spinSrc = `
func main() {
	MPI_Init()
	var i = 0
	while i < 2000000000 {
		i = i + 1
	}
	MPI_Finalize()
	return i
}
`

// cancelLatencyBound is the asserted ceiling between cancel and the
// run's return. The real latency is one statement boundary (~µs); the
// bound is generous for loaded CI machines while still proving the run
// did not spin its remaining ~2e9 iterations.
const cancelLatencyBound = 5 * time.Second

// TestRunCtxCancelBoundedLatency: canceling the context aborts an
// in-flight run within a bounded interval, the result classifies as
// OutcomeCanceled carrying the cancellation cause, and the counters
// record it.
func TestRunCtxCancelBoundedLatency(t *testing.T) {
	prog := parser.MustParse("spin.mh", spinSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})
	ctx, cancel := context.WithCancelCause(context.Background())

	done := make(chan *Result, 1)
	go func() { done <- sess.RunCtx(ctx, sched.NewRoundRobin()) }()
	time.Sleep(20 * time.Millisecond) // let the run get into the loop
	cause := errors.New("client disconnected")
	canceledAt := time.Now()
	cancel(cause)

	var res *Result
	select {
	case res = <-done:
	case <-time.After(cancelLatencyBound):
		t.Fatalf("run did not return within %v of cancellation", cancelLatencyBound)
	}
	if elapsed := time.Since(canceledAt); elapsed > cancelLatencyBound {
		t.Fatalf("cancellation latency %v exceeds bound %v", elapsed, cancelLatencyBound)
	}
	if got := res.Outcome(); got != OutcomeCanceled {
		t.Fatalf("canceled run classified %s (err %v), want %s", got, res.Err, OutcomeCanceled)
	}
	var ce *CancelError
	if !errors.As(res.Err, &ce) || !errors.Is(ce.Cause, cause) {
		t.Fatalf("canceled run error %v does not carry the cancellation cause", res.Err)
	}
	if got := sess.Canceled(); got != 1 {
		t.Fatalf("Canceled() = %d, want 1", got)
	}
	if got := sess.Watchdogs(); got != 0 {
		t.Fatalf("cancellation bumped Watchdogs() to %d", got)
	}
}

// TestRunCtxRefusesCanceledContext: a context canceled before the run
// starts is refused outright — no world is built, the result is
// OutcomeCanceled, and the counter still moves (a refused run is a
// canceled run for accounting).
func TestRunCtxRefusesCanceledContext(t *testing.T) {
	prog := parser.MustParse("spin.mh", spinSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	res := sess.RunCtx(ctx, sched.NewRoundRobin())
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled run took %v: it executed instead of refusing", elapsed)
	}
	if got := res.Outcome(); got != OutcomeCanceled {
		t.Fatalf("pre-canceled run classified %s, want %s", got, OutcomeCanceled)
	}
	if res.Stats.Steps != 0 {
		t.Fatalf("pre-canceled run executed %d steps", res.Stats.Steps)
	}
	if got := sess.Canceled(); got != 1 {
		t.Fatalf("Canceled() = %d, want 1", got)
	}
}

// TestWallTimeoutWatchdog: Options.WallTimeout abandons a wedged run as
// OutcomeTimeout within a bounded interval, counts it, and leaves the
// session fully usable — the next run times out identically instead of
// inheriting poisoned state.
func TestWallTimeoutWatchdog(t *testing.T) {
	prog := parser.MustParse("spin.mh", spinSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2, WallTimeout: 50 * time.Millisecond})

	for i := 1; i <= 2; i++ {
		done := make(chan *Result, 1)
		go func() { done <- sess.Run(sched.NewRoundRobin()) }()
		var res *Result
		select {
		case res = <-done:
		case <-time.After(cancelLatencyBound):
			t.Fatalf("run %d did not return within %v of the watchdog deadline", i, cancelLatencyBound)
		}
		if got := res.Outcome(); got != OutcomeTimeout {
			t.Fatalf("run %d classified %s (err %v), want %s", i, got, res.Err, OutcomeTimeout)
		}
		var we *WatchdogError
		if !errors.As(res.Err, &we) || we.Timeout != 50*time.Millisecond {
			t.Fatalf("run %d error %v is not the watchdog's", i, res.Err)
		}
		if got := sess.Watchdogs(); got != int64(i) {
			t.Fatalf("after run %d: Watchdogs() = %d, want %d", i, got, i)
		}
	}
	if got := sess.Canceled(); got != 0 {
		t.Fatalf("watchdog aborts bumped Canceled() to %d", got)
	}
}

// TestGuardDisarmedBeforeRecycle: a context canceled AFTER its run
// completed must never abort a later run on the recycled environment —
// the disarm-before-recycle discipline. The clean program finishes fast;
// the late cancel then races nothing.
func TestGuardDisarmedBeforeRecycle(t *testing.T) {
	prog := parser.MustParse("clean.mh", sessionSrc)
	sess := NewSession(prog, Options{Procs: 2, Threads: 2})

	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if res := sess.RunCtx(ctx, sched.NewRoundRobin()); res.Err != nil {
			t.Fatalf("run %d under a live context failed: %v", i, res.Err)
		}
		cancel() // fires (if at all) against a disarmed guard
		if res := sess.Run(sched.NewRoundRobin()); res.Err != nil {
			t.Fatalf("run %d after a late cancel failed: %v — a stale guard aborted a recycled env", i, res.Err)
		}
	}
	if got := sess.Canceled(); got != 0 {
		t.Fatalf("completed runs counted as canceled: %d", got)
	}
}

// TestClassifyRobustOutcomes pins the error → outcome mapping of the
// three robustness classes, through both the fast path (the error
// itself) and the wrapped path (errors.As).
func TestClassifyRobustOutcomes(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{&CancelError{Cause: context.Canceled}, OutcomeCanceled},
		{&WatchdogError{Timeout: time.Second}, OutcomeTimeout},
		{NewQuarantineError("test", "boom", nil), OutcomeInternalError},
	}
	for _, tc := range cases {
		if got := ClassifyError(tc.err); got != tc.want {
			t.Errorf("ClassifyError(%T) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

// TestThreadPanicQuarantined: a panic in a rank main's or a team
// worker's body aborts the run with a QuarantineError (outcome
// internal-error) in both execution modes, and the session stays usable.
func TestThreadPanicQuarantined(t *testing.T) {
	leakcheck.Check(t) // snapshot now, diff at cleanup
	prog := parser.MustParse("team.mh", `
func main() {
	MPI_Init()
	var x = 0
	parallel num_threads(3) {
		atomic x += 1
	}
	MPI_Finalize()
	return x
}
`)
	for _, mode := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"free", func() sched.Scheduler { return nil }},
		{"serialized", func() sched.Scheduler { return sched.NewRandom(1) }},
	} {
		// Arrival 1 is always a rank main; serialized, arrivals 3-6 are
		// the team workers.
		for _, first := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/arrival%d", mode.name, first), func(t *testing.T) {
				sess := NewSession(prog, Options{Procs: 2, Threads: 2})
				disarm := chaos.Arm(chaos.Config{"interp.thread": {First: first, Action: chaos.ActPanic}})
				res := sess.Run(mode.mk())
				disarm()
				var qe *QuarantineError
				if res.Outcome() != OutcomeInternalError || !errors.As(res.Err, &qe) || qe.Op != "interp.thread" {
					t.Fatalf("panicking thread: outcome %s err %v, want a quarantined internal-error", res.Outcome(), res.Err)
				}
				if res := sess.Run(mode.mk()); res.Err != nil {
					t.Fatalf("post-panic run failed: %v", res.Err)
				}
				if got := sess.Abandoned(); got != 0 {
					t.Fatalf("quarantined run wedged its drain: Abandoned() = %d", got)
				}
			})
		}
	}
}
