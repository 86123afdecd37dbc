package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parcoach"
	"parcoach/internal/interp"
)

// loop says which ops a pass runs: either until deadline has passed and
// at least min ops completed, or exactly perClient[c] ops on client c.
type loop struct {
	first     int
	deadline  time.Duration
	min       int
	perClient []int
	pass      int
	tr        *tracer
}

// pass is the samples of one pass and its wall time.
type pass struct {
	samples []sample
	wall    time.Duration
}

// drive runs one pass: client c runs ops first+c, first+c+clients, ...
// in a closed loop (its next op starts when the previous one returned).
// A timed pass ends on a cycle boundary of every client, so each run
// measures whole cycles over the workload's inputs.
func drive(r runner, l loop) pass {
	clients, cycle := r.clients(), r.cycle()
	var (
		mu   sync.Mutex
		out  []sample
		done atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if l.deadline > 0 {
					el := time.Since(start)
					if (el >= l.deadline && int(done.Load()) >= l.min && k%cycle == 0) || el >= maxRun {
						return
					}
				} else if k >= l.perClient[c] {
					return
				}
				i := l.first + c + k*clients
				sp := l.tr.opSpan(i)
				s := r.op(i, l.pass, sp)
				sp.finish()
				s.index = i
				done.Add(1)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p := pass{samples: out, wall: time.Since(start)}
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].index < p.samples[b].index })
	return p
}

// uniform is a per-client op count of n on every client.
func uniform(n, clients int) []int {
	out := make([]int, clients)
	for c := range out {
		out[c] = n
	}
	return out
}

// layerObs is what one op observed of each layer, summed over its calls.
type layerObs struct {
	// compile: per uncached compile, from the returned Timing and Stats.
	compiles                                int
	frontend, analysis, instrument, backend time.Duration
	statements, irInsts                     int
	// interp: every run the benchmark executed directly.
	runs                   int
	steps, collectives     int64
	ccChecks, valueChecks  int
	freeRun, serialRun     time.Duration
	freeSteps, serialSteps int64
	// explore: Program.Explore reports.
	explorations, explSchedules, exhausted int
	sleepSkips, diverged                   int
	exploreTime                            time.Duration
	// campaign: parcoach.Campaign reports.
	campaigns, cRuns, cCoverage, cBugs, cMutants, cRetired int
	campaignTime                                           time.Duration
}

func (o *layerObs) addCompile(p *parcoach.Program) {
	o.compiles++
	o.frontend += p.Timing.Frontend
	o.analysis += p.Timing.Analysis
	o.instrument += p.Timing.Instrument
	o.backend += p.Timing.Backend
	o.statements += p.Stats.Statements
	o.irInsts += p.Stats.IRInsts
}

// addRun records a run; serial says whether a scheduler serialized it.
func (o *layerObs) addRun(res *interp.Result, d time.Duration, serial bool) {
	o.runs++
	o.steps += res.Stats.Steps
	o.collectives += res.Stats.Collectives
	o.ccChecks += res.Stats.CCChecks
	o.valueChecks += res.Stats.ValueChecks
	if serial {
		o.serialRun += d
		o.serialSteps += res.Stats.Steps
	} else {
		o.freeRun += d
		o.freeSteps += res.Stats.Steps
	}
}

func (o *layerObs) addExplore(rep *parcoach.ExplorationReport, d time.Duration) {
	o.explorations++
	o.explSchedules += rep.Schedules
	if rep.Exhausted {
		o.exhausted++
	}
	o.sleepSkips += rep.SleepSkips
	o.diverged += rep.Diverged
	o.exploreTime += d
}

func (o *layerObs) addCampaign(rep *parcoach.CampaignReport, d time.Duration) {
	o.campaigns++
	o.campaignTime += d
	o.cRuns += rep.Runs
	o.cCoverage += rep.Coverage
	o.cBugs += len(rep.Bugs)
	o.cMutants += rep.Mutants
	o.cRetired += rep.Retired
}

func (o *layerObs) add(x *layerObs) {
	if x == nil {
		return
	}
	o.compiles += x.compiles
	o.frontend += x.frontend
	o.analysis += x.analysis
	o.instrument += x.instrument
	o.backend += x.backend
	o.statements += x.statements
	o.irInsts += x.irInsts
	o.runs += x.runs
	o.steps += x.steps
	o.collectives += x.collectives
	o.ccChecks += x.ccChecks
	o.valueChecks += x.valueChecks
	o.freeRun += x.freeRun
	o.serialRun += x.serialRun
	o.freeSteps += x.freeSteps
	o.serialSteps += x.serialSteps
	o.explorations += x.explorations
	o.explSchedules += x.explSchedules
	o.exhausted += x.exhausted
	o.sleepSkips += x.sleepSkips
	o.diverged += x.diverged
	o.exploreTime += x.exploreTime
	o.campaigns += x.campaigns
	o.cRuns += x.cRuns
	o.cCoverage += x.cCoverage
	o.cBugs += x.cBugs
	o.cMutants += x.cMutants
	o.cRetired += x.cRetired
	o.campaignTime += x.campaignTime
}

// per divides, reporting 0 for a layer the pass never reached.
func per(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

func rate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// layerMetrics computes the per-layer metrics the ops themselves
// observed. Every name of perLayer is set; a layer the workload does
// not reach reads 0 (see README.md).
func layerMetrics(s []sample) metrics {
	var o layerObs
	planted, missed := 0, 0
	for _, x := range s {
		o.add(x.layer)
		if x.planted {
			planted++
		}
		if x.missed {
			missed++
		}
	}
	m := metrics{}
	for _, d := range perLayer {
		m.set(d.name, 0, d.unit)
	}
	o.setMetrics(m)
	m.set("explore.planted_bugs", float64(planted), "count")
	m.set("explore.missed_bugs", float64(missed), "count")
	return m
}

// setMetrics sets the compile, interpreter, scheduler, exploration and
// campaign metrics o observed.
func (o *layerObs) setMetrics(m metrics) {
	ms := func(d time.Duration) float64 { return per(d.Seconds()*1e3, o.compiles) }
	m.set("compile.frontend_ms", ms(o.frontend), "ms")
	m.set("compile.analysis_ms", ms(o.analysis), "ms")
	m.set("compile.instrument_ms", ms(o.instrument), "ms")
	m.set("compile.backend_ms", ms(o.backend), "ms")
	m.set("compile.statements", per(float64(o.statements), o.compiles), "count")
	m.set("compile.ir_insts", per(float64(o.irInsts), o.compiles), "count")
	addRunMetrics(m, o)
	m.set("explore.explorations", float64(o.explorations), "count")
	m.set("explore.schedules", per(float64(o.explSchedules), o.explorations), "count")
	m.set("explore.exhausted_share", per(float64(o.exhausted), o.explorations), "ratio")
	m.set("explore.sleep_skips", per(float64(o.sleepSkips), o.explorations), "count")
	m.set("explore.diverged", float64(o.diverged), "count")
	m.set("campaign.runs", per(float64(o.cRuns), o.campaigns), "count")
	m.set("campaign.coverage", per(float64(o.cCoverage), o.campaigns), "count")
	m.set("campaign.bugs", per(float64(o.cBugs), o.campaigns), "count")
	m.set("campaign.mutants", per(float64(o.cMutants), o.campaigns), "count")
	m.set("campaign.retired", per(float64(o.cRetired), o.campaigns), "count")
}

// addRunMetrics sets the interpreter and scheduler metrics from o.
func addRunMetrics(m metrics, o *layerObs) {
	free := rate(o.freeSteps, o.freeRun)
	serial := rate(o.serialSteps, o.serialRun)
	m.set("interp.free_steps_per_s", free, "1/s")
	m.set("interp.steps", per(float64(o.steps), o.runs), "count")
	m.set("verifier.cc_checks", per(float64(o.ccChecks), o.runs), "count")
	m.set("verifier.value_checks", per(float64(o.valueChecks), o.runs), "count")
	m.set("mpi.collectives", per(float64(o.collectives), o.runs), "count")
	m.set("sched.serial_steps_per_s", serial, "1/s")
	if free > 0 && serial > 0 {
		m.set("sched.serial_overhead", free/serial, "x")
	}
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	gcCycles, allocBytes uint64
	gcCPU, totalCPU      float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == rtmetrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == rtmetrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{gcCycles: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// sub is the runtime's work from reading b to reading a.
func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		gcCycles: a.gcCycles - b.gcCycles, allocBytes: a.allocBytes - b.allocBytes,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{
		gcCycles: a.gcCycles + b.gcCycles, allocBytes: a.allocBytes + b.allocBytes,
		gcCPU: a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU,
	}
}

// goWork derives the go.* metrics from the runtime's work d over the
// samples s.
func goWork(d runtimeSample, s []sample) (allocPerSchedule, cycles, gcShare float64) {
	if d.totalCPU > 0 {
		gcShare = d.gcCPU / d.totalCPU
	}
	return per(float64(d.allocBytes), totalSchedules(s)), float64(d.gcCycles), gcShare
}

func addGoMetrics(m metrics, d runtimeSample, s []sample) {
	a, c, g := goWork(d, s)
	m.set("go.alloc_bytes_per_schedule", a, "B")
	m.set("go.gc_cycles", c, "count")
	m.set("go.gc_cpu_share", g, "ratio")
}

func goInfo(d runtimeSample, s []sample) string {
	a, c, g := goWork(d, s)
	return fmt.Sprintf("go alloc_bytes_per_schedule=%.0f gc_cycles=%.0f gc_cpu_share=%.4f", a, c, g)
}
