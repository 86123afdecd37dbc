package main

import (
	"fmt"
	"time"

	"parcoach"
	"parcoach/internal/explore"
	"parcoach/internal/sched"
	"parcoach/internal/workload"
)

// fig1 validates the paper's Figure 1 programs: per op one uncached
// compile, one free-running instrumented run and one serialized run
// replaying a seeded random schedule token.
type fig1 struct {
	seed  int64
	progs []workload.Workload
	// want overrides the expected outcome (tests plant a wrong one).
	want parcoach.RunOutcome
}

// fig1Procs and fig1Threads are the 2×2 configuration the programs run
// at (ScaleB is excluded: three of its programs exceed
// explore.DefaultMaxSteps, so their schedules end budget-exhausted).
const fig1Procs, fig1Threads = 2, 2

// setupFig1 generates the Figure 1 set and checks that every program
// compiles before any op is timed.
func setupFig1(seed int64) (runner, error) {
	f := &fig1{seed: seed, progs: workload.Figure1Set(workload.ScaleA), want: parcoach.RunClean}
	for _, w := range f.progs {
		if _, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull, Workers: 1}); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return f, nil
}

func (f *fig1) clients() int { return 1 }
func (f *fig1) cycle() int   { return len(f.progs) }
func (f *fig1) close()       {}

// token is the replay token of op i's schedule.
func (f *fig1) token(i int) string {
	return sched.RandomToken(int64(mix(uint64(f.seed), uint64(i)) >> 1))
}

func (f *fig1) op(i, _ int, sp spanner) sample {
	w := f.progs[i%len(f.progs)]
	s := sample{kind: w.Name, layer: &layerObs{}}
	start := time.Now()

	end := sp.span("compile")
	p, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull, Workers: 1})
	end()
	if err != nil {
		s.failure = fmt.Sprintf("compile: %v", err)
		s.verdict = time.Since(start)
		return s
	}
	s.compile = p.Timing.Total
	s.layer.addCompile(p)

	opts := parcoach.RunOptions{Procs: fig1Procs, Threads: fig1Threads, MaxSteps: explore.DefaultMaxSteps}
	end = sp.span("interp")
	t := time.Now()
	res := p.Run(opts)
	s.layer.addRun(res, time.Since(t), false)
	end()
	if got := res.Outcome(); got != f.want {
		s.failure = fmt.Sprintf("free run: %s, want %s: %v", got, f.want, res.Err)
	}
	token := f.token(i)
	sc, err := sched.Parse(token)
	if err != nil {
		s.failure = fmt.Sprintf("token %s: %v", token, err)
		s.verdict = time.Since(start)
		return s
	}
	opts.Scheduler = sc
	end = sp.span("sched")
	t = time.Now()
	res = p.Run(opts)
	s.layer.addRun(res, time.Since(t), true)
	end()
	s.schedules = 1
	if got := res.Outcome(); got != f.want && s.failure == "" {
		s.failure = fmt.Sprintf("schedule %s: %s, want %s: %v", token, got, f.want, res.Err)
	}
	s.verdict = time.Since(start)
	return s
}

func (f *fig1) probe([]sample, metrics) {}
