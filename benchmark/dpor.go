package main

import (
	"fmt"
	"time"

	"parcoach"
	"parcoach/internal/explore"
	"parcoach/internal/interp"
	"parcoach/internal/mhgen"
	"parcoach/internal/sched"
	"parcoach/internal/workload"
)

const (
	// dporBudget is the schedule budget of each DPOR exploration.
	dporBudget = 256
	// dporCorpus is how many consecutive generator seeds the dpor corpus
	// holds (the convergent-last-writer program follows them); a run
	// measures whole cycles through it.
	dporCorpus = 100
	// corpusFirst is the first generator seed of every workload's corpus.
	corpusFirst = 1
)

// convergentSrc is the convergent-last-writer program: the two orders of
// the x writes converge to the same positional state with different x,
// and one of them divides by zero. Its DPOR verdicts must include the
// runtime error.
const convergentSrc = `func main() {
	MPI_Init()
	var x = 0
	var y = 0
	parallel num_threads(2) {
		critical { x = tid() + 1 }
		critical { y = tid() + 1 }
	}
	if y == 1 {
		var z = 10 / (x - 2)
	}
	MPI_Finalize()
}
`

// knownMisses names the corpus programs whose planted bug DPOR misses
// at dporBudget at this commit: torn-buffer programs whose racing write
// comes late in DPOR's order (on the four checked by hand, 3486 clean
// schedules came before the first value error). Such a miss is labeled
// and counted on the "# detection" line; a miss of any other program
// fails its op, so a change that loses a bug DPOR caught shows in
// failed. A known miss that gets caught is not a failure.
var knownMisses = map[string]bool{
	"mhgen-s19-torn-buffer.mh": true,
	"mhgen-s29-torn-buffer.mh": true,
	"mhgen-s49-torn-buffer.mh": true,
	"mhgen-s59-torn-buffer.mh": true,
	"mhgen-s79-torn-buffer.mh": true,
	"mhgen-s89-torn-buffer.mh": true,
	"mhgen-s99-torn-buffer.mh": true,
}

// input is one program with its ground truth.
type input struct {
	name, src      string
	procs, threads int
	// bug is the planted class (workload.BugNone = clean).
	bug workload.Bug
	// mustReach, when set, is an outcome the explored verdicts must
	// include (the convergent-last-writer program's runtime error).
	mustReach *parcoach.RunOutcome
}

var runtimeError = parcoach.RunRuntimeError

func convergentInput() input {
	return input{name: "convergent-last-writer.mh", src: convergentSrc, procs: 1, threads: 2, mustReach: &runtimeError}
}

func generated(seed uint64) input {
	gp := mhgen.FromSeed(seed)
	return input{name: gp.Name + ".mh", src: gp.Source, procs: gp.Procs, threads: gp.Threads, bug: gp.Bug}
}

// mix is splitmix64 of (a, b): derived per-op seeds.
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rotation is where in a corpus of n entries the seed starts a run.
func rotation(seed int64, n int) int { return int(mix(uint64(seed), 0) % uint64(n)) }

// dpor compiles and explores generated programs with the DPOR frontier.
// The corpus is fixed; the seed sets where the run starts in it, so
// every run measures the same programs about twice over and runs with
// different seeds stay comparable.
type dpor struct {
	inputs []input
	start  int
	// known is the set of programs whose miss is expected (knownMisses).
	known map[string]bool
	// probes holds, per traced op, the schedule tokens its exploration
	// ran, for the explore.self_s replay.
	probes map[int][]string
}

func setupDPOR(seed int64) (runner, error) {
	d := &dpor{known: knownMisses, probes: map[int][]string{}}
	for k := 0; k < dporCorpus; k++ {
		d.inputs = append(d.inputs, generated(corpusFirst+uint64(k)))
	}
	d.inputs = append(d.inputs, convergentInput())
	d.start = rotation(seed, len(d.inputs))
	return d, nil
}

func (d *dpor) clients() int { return 1 }
func (d *dpor) cycle() int   { return len(d.inputs) }
func (d *dpor) close()       {}

func (d *dpor) input(i int) input { return d.inputs[(d.start+i)%len(d.inputs)] }

func dporOptions(in input) parcoach.ExploreOptions {
	return parcoach.ExploreOptions{
		Strategy:  parcoach.ExploreDFS,
		Frontier:  parcoach.ExploreFrontierDPOR,
		Schedules: dporBudget,
		Procs:     in.procs,
		Threads:   in.threads,
		Workers:   1,
	}
}

func compileFull(in input) (*parcoach.Program, error) {
	return parcoach.Compile(in.name, in.src, parcoach.Options{Mode: parcoach.ModeFull, Workers: 1})
}

func (d *dpor) op(i, _ int, sp spanner) sample {
	in := d.input(i)
	s := sample{kind: in.bug.String(), input: in.name, layer: &layerObs{}}
	if in.mustReach != nil {
		s.kind = "convergent-last-writer"
	}
	start := time.Now()
	end := sp.span("compile")
	p, err := compileFull(in)
	end()
	if err != nil {
		s.failure = fmt.Sprintf("%s: compile: %v", in.name, err)
		s.verdict = time.Since(start)
		return s
	}
	s.compile = p.Timing.Total
	s.layer.addCompile(p)

	opts := dporOptions(in)
	var tokens []string
	if sp.tr != nil {
		opts.Progress = func(e explore.ProgressEvent) { tokens = append(tokens, e.Schedule) }
	}
	end = sp.span("explore")
	t := time.Now()
	rep := p.Explore(opts)
	s.layer.addExplore(rep, time.Since(t))
	end()
	s.schedules = rep.Schedules
	j := judgeExploration(in, len(p.Warnings()) > 0, rep)
	switch {
	case j.failure != "":
		s.failure = in.name + ": " + j.failure
	case j.missed && !d.known[in.name]:
		s.failure = fmt.Sprintf("%s: planted %s missed by %d schedules, not a known miss", in.name, in.bug, rep.Schedules)
	}
	s.planted = in.bug != workload.BugNone
	s.missed = j.missed
	s.verdict = time.Since(start)
	if sp.tr != nil {
		d.probes[i] = tokens
	}
	return s
}

// judgment is an exploration's verdict against ground truth.
type judgment struct {
	// failure is "" when the verdict keeps the soundness contract.
	failure string
	// missed is a planted bug neither warned about nor caught on any
	// explored schedule: a false negative at this budget.
	missed bool
}

// judgeExploration checks an exploration against the input's ground
// truth, as internal/mhgen/diff judges its exploration pass. Failures
// break the soundness contract: a clean program fails on some schedule;
// a planted bug deadlocks uncaught, fails with a plain runtime error or
// spins out its budget; the convergent-last-writer program's runtime
// error is not found. A planted bug that no warning and no schedule
// catches is a false negative, labeled as the differential matrix
// labels it FN; the op fails it unless it is a known miss.
func judgeExploration(in input, static bool, rep *parcoach.ExplorationReport) judgment {
	if rep.Canceled || rep.Quarantined > 0 {
		return judgment{failure: fmt.Sprintf("exploration canceled=%t quarantined=%d", rep.Canceled, rep.Quarantined)}
	}
	if in.mustReach != nil {
		if !rep.Caught(*in.mustReach) {
			return judgment{failure: fmt.Sprintf("verdicts %s miss %s", verdictList(rep), *in.mustReach)}
		}
		return judgment{}
	}
	for _, v := range rep.Verdicts {
		switch {
		case in.bug == workload.BugNone && v.Outcome != parcoach.RunClean:
			return judgment{failure: fmt.Sprintf("clean program ended %s under %s", v.Outcome, v.Schedule)}
		case in.bug != workload.BugNone && v.Outcome == parcoach.RunDeadlock && !static:
			return judgment{failure: fmt.Sprintf("planted %s deadlocked uncaught under %s", in.bug, v.Schedule)}
		case in.bug != workload.BugNone && (v.Outcome == parcoach.RunRuntimeError || v.Outcome == parcoach.RunBudget):
			return judgment{failure: fmt.Sprintf("planted %s ended %s under %s", in.bug, v.Outcome, v.Schedule)}
		}
	}
	missed := in.bug != workload.BugNone && !static &&
		!rep.Caught(parcoach.RunCheckAbort) && !rep.Caught(parcoach.RunValueError)
	return judgment{missed: missed}
}

func verdictList(rep *parcoach.ExplorationReport) string {
	out := "{"
	for k, v := range rep.Verdicts {
		if k > 0 {
			out += ","
		}
		out += v.Outcome.String()
	}
	return out + "}"
}

// probe replays every schedule of every traced exploration on a session
// (plain replay, no event recording): explore.self_s is the exploration
// time the replays do not account for.
func (d *dpor) probe(s []sample, m metrics) {
	var obs layerObs
	var replay time.Duration
	for _, x := range s {
		tokens, ok := d.probes[x.index]
		if !ok {
			continue
		}
		in := d.input(x.index)
		p, err := compileFull(in)
		if err != nil {
			continue
		}
		target := p.Source
		if p.Instrumented != nil {
			target = p.Instrumented
		}
		sess := interp.NewSession(target, interp.Options{
			Procs: in.procs, Threads: in.threads, MaxSteps: explore.DefaultMaxSteps, ValueCheck: true,
		})
		for _, tok := range tokens {
			sc, err := sched.Parse(tok)
			if err != nil {
				continue
			}
			t := time.Now()
			res := sess.Run(sc)
			el := time.Since(t)
			replay += el
			obs.addRun(res, el, true)
		}
		obs.exploreTime += x.layer.exploreTime
		obs.explorations++
	}
	m.set("explore.self_s", per((obs.exploreTime-replay).Seconds(), obs.explorations), "s")
	addRunMetrics(m, &obs)
}
