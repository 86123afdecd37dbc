package parcoach_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parcoach"
	"parcoach/internal/explore"
	"parcoach/internal/sched"
	"parcoach/internal/workload"
)

// scheduleGoldenPath holds the schedule-identity golden: for every
// example program and the Figure 1 set, the serialized runs' outcomes,
// outputs and machine-independent scheduling counters under a fixed
// token set, plus one DPOR exploration per program. Any change to where
// decisions happen or which threads they may pick shows up here, so a
// refactor of the execution machinery must leave it byte-identical.
// Regenerate with `go test -run TestGoldenScheduleIdentity -update .`.
var scheduleGoldenPath = filepath.Join("testdata", "golden", "schedule-identity.golden")

// scheduleGoldenTokens are the schedules every program runs under.
var scheduleGoldenTokens = []string{"rr", "rand:1", "rand:2", "rand:3", "pct:1:3"}

// scheduleGoldenDPORBudget bounds each program's DPOR exploration.
const scheduleGoldenDPORBudget = 32

// branchHasher wraps a scheduler and hashes its picks at branch points
// (more than one enabled thread): the branch trace that names the run.
type branchHasher struct {
	inner    sched.Scheduler
	h        uint64
	branches int
}

func (b *branchHasher) Next(c sched.Choice) sched.ThreadID {
	id := b.inner.Next(c)
	if len(c.Enabled) > 1 {
		b.branches++
		b.h = (b.h ^ uint64(id+1)) * 1099511628211
	}
	return id
}

func scheduleGoldenPrograms(t *testing.T) []goldenProgram {
	progs := goldenPrograms(t)
	for _, w := range workload.Figure1Set(workload.ScaleA) {
		progs = append(progs, goldenProgram{name: "fig1-" + w.Name, source: w.Source, procs: 2, threads: 2})
	}
	return progs
}

func describeSchedules(t *testing.T, gp goldenProgram) string {
	t.Helper()
	p, err := parcoach.Compile(gp.name+".mh", gp.source, parcoach.Options{Mode: parcoach.ModeFull, Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", gp.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "program %s (procs=%d threads=%d)\n", gp.name, gp.procs, gp.threads)
	for _, tok := range scheduleGoldenTokens {
		s, err := sched.Parse(tok)
		if err != nil {
			t.Fatal(err)
		}
		bh := &branchHasher{inner: s, h: 14695981039346656037}
		res := p.Run(parcoach.RunOptions{
			Procs: gp.procs, Threads: gp.threads, MaxSteps: explore.DefaultMaxSteps, Scheduler: bh,
		})
		st := res.Stats
		fmt.Fprintf(&b, "  %s: outcome=%s steps=%d decisions=%d switches=%d branches=%d trace=%016x\n",
			tok, res.Outcome(), st.Steps, st.Decisions, st.Switches, bh.branches, bh.h)
		if res.Err != nil {
			fmt.Fprintf(&b, "    error %q\n", res.Err.Error())
		}
		out := fnv.New64a()
		out.Write([]byte(res.Output))
		fmt.Fprintf(&b, "    output %d bytes, %d lines, fnv %016x\n",
			len(res.Output), strings.Count(res.Output, "\n"), out.Sum64())
	}
	rep := p.Explore(parcoach.ExploreOptions{
		Strategy: parcoach.ExploreDFS, Frontier: parcoach.ExploreFrontierDPOR,
		Schedules: scheduleGoldenDPORBudget, Procs: gp.procs, Threads: gp.threads, Workers: 1,
	})
	fmt.Fprintf(&b, "  dpor: schedules=%d exhausted=%v sleep-skips=%d diverged=%d verdicts=",
		rep.Schedules, rep.Exhausted, rep.SleepSkips, rep.Diverged)
	for i, v := range rep.Verdicts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d@%d", v.Outcome, v.Count, v.First)
	}
	b.WriteByte('\n')
	return b.String()
}

// TestGoldenScheduleIdentity pins the schedule identity of serialized
// execution: every decision point, enabled set and pick, observed
// through outcomes, outputs, step/decision/switch counters, branch-trace
// hashes and DPOR schedule counts.
func TestGoldenScheduleIdentity(t *testing.T) {
	var b strings.Builder
	for _, gp := range scheduleGoldenPrograms(t) {
		b.WriteString(describeSchedules(t, gp))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(scheduleGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scheduleGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("schedule identity changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
