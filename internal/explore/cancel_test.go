package explore

import (
	"context"
	"strings"
	"testing"

	"parcoach/internal/chaos"
	"parcoach/internal/interp"
	"parcoach/internal/leakcheck"
	"parcoach/internal/parser"
)

// explorePaths enumerates every engine path a cancellation or panic can
// travel: the sampled fan-out and each DFS frontier.
var explorePaths = []struct {
	name string
	opts Options
}{
	{"random", Options{Strategy: StrategyRandom, Schedules: 64, Seed: 3, MaxSteps: 100_000, Workers: 2}},
	{"dfs-steal", Options{Strategy: StrategyDFS, Frontier: FrontierSteal, Schedules: 64, MaxSteps: 100_000, Workers: 2}},
	{"dfs-wave", Options{Strategy: StrategyDFS, Frontier: FrontierWave, Schedules: 64, MaxSteps: 100_000, Workers: 2}},
	{"dfs-dpor", Options{Strategy: StrategyDFS, Frontier: FrontierDPOR, Schedules: 64, MaxSteps: 100_000, Workers: 2}},
}

// TestExploreCancelPartialReport: canceling mid-exploration (here at an
// exact run arrival, via the chaos injector, so the test replays
// deterministically) stops every engine path with a well-formed partial
// report: Canceled set, fewer schedules than the budget, and the
// rendered report carrying the marker.
func TestExploreCancelPartialReport(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("racer.mh", racerSrc)
	for _, path := range explorePaths {
		t.Run(path.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			disarm := chaos.Arm(chaos.Config{
				"explore.run": {First: 5, Action: chaos.ActCancel, Cancel: cancel},
			})
			defer disarm()

			opts := path.opts
			opts.Ctx = ctx
			rep := Explore(prog, opts)
			if !rep.Canceled {
				t.Fatal("canceled exploration did not mark its report Canceled")
			}
			if rep.Schedules >= opts.Schedules {
				t.Fatalf("canceled exploration still ran the full budget: %d/%d", rep.Schedules, opts.Schedules)
			}
			if !strings.Contains(rep.String(), "canceled=true") {
				t.Fatalf("rendered report lacks the canceled marker:\n%s", rep)
			}
			for _, v := range rep.Verdicts {
				if v.Outcome == interp.OutcomeCanceled {
					t.Fatal("an aborted half-run leaked into the verdict aggregation")
				}
			}
		})
	}
}

// TestExploreAlreadyCanceled: a context canceled before the exploration
// starts yields an empty well-formed report instead of one refused run
// per budgeted schedule.
func TestExploreAlreadyCanceled(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("racer.mh", racerSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := Explore(prog, Options{Strategy: StrategyRandom, Schedules: 32, Ctx: ctx, MaxSteps: 100_000})
	if !rep.Canceled || rep.Schedules != 0 || len(rep.Verdicts) != 0 {
		t.Fatalf("pre-canceled exploration = %+v, want empty canceled report", rep)
	}
}

// TestExploreQuarantinesPanickingRun: a run that panics is caught at the
// run boundary, classified internal-error, counted in Quarantined, and
// the exploration finishes its remaining budget — on every engine path.
func TestExploreQuarantinesPanickingRun(t *testing.T) {
	leakcheck.Check(t)
	prog := parser.MustParse("racer.mh", racerSrc)
	for _, path := range explorePaths {
		t.Run(path.name, func(t *testing.T) {
			disarm := chaos.Arm(chaos.Config{
				"explore.run": {First: 3, Action: chaos.ActPanic},
			})
			defer disarm()

			rep := Explore(prog, path.opts)
			if rep.Canceled {
				t.Fatal("quarantined panic canceled the exploration")
			}
			if rep.Quarantined != 1 {
				t.Fatalf("Quarantined = %d, want 1\n%s", rep.Quarantined, rep)
			}
			v := rep.Verdict(interp.OutcomeInternalError)
			if v == nil || v.Count != 1 {
				t.Fatalf("internal-error verdict missing or miscounted:\n%s", rep)
			}
			if !strings.Contains(v.Sample, "panic quarantined at explore.run") {
				t.Fatalf("quarantined verdict sample %q does not identify the boundary", v.Sample)
			}
			if !strings.Contains(rep.String(), "quarantined=1") {
				t.Fatalf("rendered report lacks the quarantined marker:\n%s", rep)
			}
			if got := chaos.Fired("explore.run"); got != 1 {
				t.Fatalf("chaos fired %d times, want 1", got)
			}
		})
	}
}

// TestExploreQuarantinesPanickingThread: a panic inside one simulated
// thread's body (not at the run boundary) aborts only its run, which
// classifies internal-error; the exploration completes its budget on
// every engine path.
func TestExploreQuarantinesPanickingThread(t *testing.T) {
	leakcheck.Check(t) // snapshot now, diff at cleanup
	prog := parser.MustParse("racer.mh", racerSrc)
	for _, path := range explorePaths {
		t.Run(path.name, func(t *testing.T) {
			disarm := chaos.Arm(chaos.Config{
				"interp.thread": {First: 7, Action: chaos.ActPanic},
			})
			defer disarm()

			rep := Explore(prog, path.opts)
			if rep.Canceled {
				t.Fatal("quarantined thread panic canceled the exploration")
			}
			v := rep.Verdict(interp.OutcomeInternalError)
			if v == nil || v.Count != 1 || rep.Quarantined != 1 {
				t.Fatalf("internal-error verdict missing or miscounted:\n%s", rep)
			}
			if !strings.Contains(v.Sample, "panic quarantined at interp.thread") {
				t.Fatalf("quarantined verdict sample %q does not identify the thread boundary", v.Sample)
			}
			if got := chaos.Fired("interp.thread"); got != 1 {
				t.Fatalf("chaos fired %d times, want 1", got)
			}
		})
	}
}
