// Command benchmark is the repository benchmark: it generates the
// inputs of one named workload from a seed, runs the validator on them
// for a fixed number of seconds, checks every verdict, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload dpor --seed 7 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so neither the first set-up of the process (page faults,
// heap growth) nor one slowed by outside load sets it: most set-ups take
// 10-20 ms. Only the last instance is measured.
const setupRepeats = 11

// minVerdicts is the smallest sample a run reports percentiles from:
// verdict_s.p90 then has at least ten samples beyond it.
const minVerdicts = 100

// traceRounds is how many untraced-then-traced pass pairs a traced run
// alternates; minTraced is the smallest untraced pass of a round.
const traceRounds, minTraced = 2, 10

// maxRun bounds a run that is still short of minVerdicts after its
// seconds elapsed, so the benchmark exits well inside its time limit.
const maxRun = 120 * time.Second

// workloadDef is one named benchmark input set.
type workloadDef struct {
	name string
	// warmup is the number of untimed ops run before measuring.
	warmup int
	setup  func(seed int64) (runner, error)
}

// runner is a set-up workload instance.
type runner interface {
	// clients is the number of concurrent closed-loop clients.
	clients() int
	// cycle is the number of consecutive ops of one client that visit
	// each of the workload's inputs (or request kinds) once.
	cycle() int
	// op runs op i (a pure function of the seed and i) and returns its
	// sample. pass distinguishes repeated passes over the same indices
	// (the traced run replays the untraced pass's ops). sp records
	// nothing when the run is not traced.
	op(i, pass int, sp spanner) sample
	// probe runs the traced run's extra per-layer measurements over the
	// samples of the traced pass and adds them to lm.
	probe(samples []sample, lm metrics)
	close()
}

// sample is the record of one op: one verdict.
type sample struct {
	index int
	// kind names the op class: the daemon's request kind, dpor's bug
	// class, fig1's program.
	kind string
	// input names the corpus program of a dpor or campaign op, which a
	// run repeats; "" for fig1's (program, token) ops, which occur once,
	// and for daemon requests, whose raw latencies are reported.
	input   string
	verdict time.Duration
	// compile is the uncached compile time inside the op (0 = none).
	compile time.Duration
	// schedules the op executed.
	schedules int
	// failure is "" when the verdict matched its expectation.
	failure string
	// planted marks an input with a planted bug; missed marks one whose
	// bug the op's verdict did not catch (a labeled false negative).
	planted, missed bool
	// layer carries what the op observed of each layer.
	layer *layerObs
}

var workloads = []workloadDef{
	{name: "fig1", warmup: 5, setup: setupFig1},
	{name: "dpor", warmup: 20, setup: setupDPOR},
	{name: "campaign", warmup: 3, setup: setupCampaign},
	{name: "daemon", warmup: 40, setup: setupDaemon},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	name := flag.String("workload", "", "workload: fig1, dpor, campaign or daemon")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, l := range res.info {
		fmt.Println("#", l)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the printed outcome of one run.
type result struct {
	info []string
	out  output
}

// output is the last line of standard output.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// run sets the workload up, warms it, measures it, and builds the
// result: end-to-end metrics untraced, per-layer metrics traced.
func run(w workloadDef, seed int64, seconds time.Duration, traced bool, spansPath string) (*result, error) {
	var (
		r      runner
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()

	res := &result{info: []string{
		fmt.Sprintf("env go=%s GOMAXPROCS=%d nproc=%d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()),
		fmt.Sprintf("workload=%s seed=%d seconds=%.0f trace=%t clients=%d", w.name, seed, seconds.Seconds(), traced, r.clients()),
	}}
	warm := drive(r, loop{perClient: uniform(ceilDiv(w.warmup, r.clients()), r.clients())})
	next := len(warm.samples)
	all := warm.samples
	if !traced {
		before := readRuntime()
		m := drive(r, loop{first: next, deadline: seconds, min: minVerdicts})
		work := readRuntime().sub(before)
		all = append(all, m.samples...)
		em := endToEnd(m, median(setups))
		em.set("peak_rss_mb", peakRSSMB(), "MB")
		res.out.Metrics = em
		res.info = append(res.info, workloadInfo(w.name, m, em)...)
		res.info = append(res.info, goInfo(work, m.samples))
	} else {
		// Untraced then traced over the same op indices, twice, so drift
		// across the run cancels: the wall-clock difference is the
		// tracing overhead.
		tr := newTracer()
		var (
			plainWall, tracedWall time.Duration
			tracedSamples         []sample
			goWork                runtimeSample
		)
		for round := 0; round < traceRounds; round++ {
			plain := drive(r, loop{first: next, deadline: seconds / (2 * traceRounds), min: minTraced})
			perClient := opsPerClient(plain.samples, next, r.clients())
			before := readRuntime()
			traced := drive(r, loop{first: next, perClient: perClient, pass: 1, tr: tr})
			goWork = goWork.add(readRuntime().sub(before))
			plainWall += plain.wall
			tracedWall += traced.wall
			tracedSamples = append(tracedSamples, traced.samples...)
			all = append(append(all, plain.samples...), traced.samples...)
			// Clients may end a timed pass after different numbers of
			// cycles; the next round starts past every index used.
			next += r.clients() * slices.Max(perClient)
		}

		lm := layerMetrics(tracedSamples)
		r.probe(tracedSamples, lm)
		addGoMetrics(lm, goWork, tracedSamples)
		addSpanMetrics(lm, tr, len(tracedSamples))
		lm.set("trace.overhead", tracedWall.Seconds()/plainWall.Seconds()-1, "ratio")
		res.out.Metrics = lm
		res.info = append(res.info, fmt.Sprintf("trace untraced_s=%.3f traced_s=%.3f overhead=%+.2f%% ops=%d spans=%d",
			plainWall.Seconds(), tracedWall.Seconds(), 100*(tracedWall.Seconds()/plainWall.Seconds()-1), len(tracedSamples), tr.len()))
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
		res.info = append(res.info, "spans written to "+spansPath)
	}

	res.info = append(res.info, detectionInfo(all)...)
	res.out.Attempted = len(all)
	shown := 0
	for _, s := range all {
		if s.failure == "" {
			continue
		}
		res.out.Failed++
		if shown < 10 {
			res.info = append(res.info, fmt.Sprintf("FAILED op %d %s: %s", s.index, s.kind, s.failure))
			shown++
		}
	}
	res.out.Correct = res.out.Failed == 0
	return res, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// opsPerClient counts how many ops each client ran in a pass whose
// indices start at first (client c runs first+c, first+c+clients, ...).
func opsPerClient(s []sample, first, clients int) []int {
	n := make([]int, clients)
	for _, x := range s {
		n[(x.index-first)%clients]++
	}
	return n
}

// endToEnd computes the end-to-end metrics of a measured pass.
//
// The percentiles are over every verdict of the pass. A verdict on a
// corpus program (see sample.input) is timed as the median over the
// pass of the verdicts on that program: a run repeats its corpus cycle
// after cycle, and a burst of outside load or a GC pause that slows one
// repetition then cannot reorder the programs around a percentile.
// Other verdicts keep their own time.
func endToEnd(p pass, setup float64) metrics {
	s, elapsed := p.samples, p.wall
	m := metrics{}
	v := perInputMedians(s, func(x sample) (time.Duration, bool) { return x.verdict, true })
	c := perInputMedians(s, func(x sample) (time.Duration, bool) { return x.compile, x.compile > 0 })
	m.set("setup_s", setup, "s")
	m.set("verdict_s.p50", quantile(v, 0.5), "s")
	m.set("verdict_s.p90", quantile(v, 0.9), "s")
	m.set("verdicts_per_s", float64(len(s))/elapsed.Seconds(), "1/s")
	m.set("schedules_per_s", float64(totalSchedules(s))/elapsed.Seconds(), "1/s")
	m.set("compile_ms.p50", quantile(c, 0.5)*1e3, "ms")
	return m
}

// perInputMedians returns, for every selected sample, the median of the
// selected durations of the samples with its input, in seconds.
func perInputMedians(s []sample, pick func(sample) (time.Duration, bool)) []float64 {
	groups := map[string][]float64{}
	for _, x := range s {
		if d, ok := pick(x); ok && x.input != "" {
			groups[x.input] = append(groups[x.input], d.Seconds())
		}
	}
	medians := map[string]float64{}
	for k, g := range groups {
		medians[k] = median(g)
	}
	var out []float64
	for _, x := range s {
		d, ok := pick(x)
		switch {
		case !ok:
		case x.input != "":
			out = append(out, medians[x.input])
		default:
			out = append(out, d.Seconds())
		}
	}
	return out
}

func totalSchedules(s []sample) int {
	n := 0
	for _, x := range s {
		n += x.schedules
	}
	return n
}

// durations extracts the selected durations of s, in seconds.
func durations(s []sample, pick func(sample) (time.Duration, bool)) []float64 {
	var out []float64
	for _, x := range s {
		if d, ok := pick(x); ok {
			out = append(out, d.Seconds())
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of v (NaN when v is empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// workloadInfo prints the workload-specific named metrics that are not
// gated end-to-end metrics: the request-level daemon names, the free
// run time on fig1, and the sample counts behind every percentile.
func workloadInfo(name string, p pass, em metrics) []string {
	s, elapsed := p.samples, p.wall
	byKind := map[string][]float64{}
	var runMS []float64
	for _, x := range s {
		byKind[x.kind] = append(byKind[x.kind], x.verdict.Seconds())
		if x.layer != nil && x.layer.freeRun > 0 {
			runMS = append(runMS, x.layer.freeRun.Seconds()*1e3)
		}
	}
	v := durations(s, func(x sample) (time.Duration, bool) { return x.verdict, true })
	lines := []string{fmt.Sprintf("samples verdicts=%d wall_s=%.3f (%.2f verdicts/s over the wall)",
		len(v), elapsed.Seconds(), float64(len(v))/elapsed.Seconds())}
	if len(runMS) > 0 {
		lines = append(lines, fmt.Sprintf("metric run_ms.p50 = %.4f ms (n=%d)", median(runMS), len(runMS)))
	}
	if name == "daemon" {
		lines = append(lines,
			fmt.Sprintf("metric req_per_s = %.2f 1/s (verdicts_per_s)", em["verdicts_per_s"].Value),
			fmt.Sprintf("metric req_s.p50 = %.6f s (verdict_s.p50)", em["verdict_s.p50"].Value))
		if len(v) >= 1000 {
			lines = append(lines, fmt.Sprintf("metric req_s.p99 = %.6f s (n=%d)", quantile(v, 0.99), len(v)))
		} else {
			lines = append(lines, fmt.Sprintf("metric req_s.p99 = n/a (n=%d < 1000)", len(v)))
		}
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			lines = append(lines, fmt.Sprintf("metric req_s.p50[%s] = %.6f s (n=%d)", k, median(byKind[k]), len(byKind[k])))
		}
	}
	return lines
}

// detectionInfo reports the planted bugs the ops missed, per bug class
// (a known miss is printed here, not failed; see knownMisses).
func detectionInfo(s []sample) []string {
	planted, missed := 0, map[string]int{}
	for _, x := range s {
		if x.planted {
			planted++
		}
		if x.missed {
			missed[x.kind]++
		}
	}
	if planted == 0 {
		return nil
	}
	n := 0
	var classes []string
	for k, c := range missed {
		n += c
		classes = append(classes, fmt.Sprintf("%s=%d", k, c))
	}
	sort.Strings(classes)
	return []string{fmt.Sprintf("detection planted=%d missed=%d %s", planted, n, strings.Join(classes, " "))}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
