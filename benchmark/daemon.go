package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"time"

	"parcoach"
	"parcoach/internal/explore"
	"parcoach/internal/interp"
	"parcoach/internal/sched"
	"parcoach/internal/serve"
)

const (
	// daemonClients is the number of closed-loop clients.
	daemonClients = 2
	// daemonPool is the number of programs the daemon serves warm: the
	// first generator seeds of the fixed corpus. The seed drives the
	// traffic: which program each request names, the replay tokens, the
	// exploration seeds and the cold variants.
	daemonPool = 24
	// daemonTokens and daemonExploreSeeds are the replay tokens and
	// exploration seeds each pool program is requested with.
	daemonTokens       = 4
	daemonExploreSeeds = 2
	// daemonExploreSchedules is the budget of each /explore request.
	daemonExploreSchedules = 4
)

// daemonCycle is each client's request mix, repeated: 40% cache-hit
// compiles, 30% token replays, 25% explorations, 5% cold compiles. No
// recorded daemon traffic exists to take the shares from; they are an
// assumption, not a measurement: a daemon that mostly answers requests
// on programs it already holds, with a few first-time compiles. They
// were chosen so the percentiles fall inside a request kind, not on an
// edge between two: latencies rank hit < run < explore < cold, so the
// median falls a third into the run band and p90 at four fifths of
// the explore band, below the cold requests, which compile_ms.p50
// measures on their own.
var daemonCycle = [20]string{
	"hit", "run", "explore", "hit", "run", "explore", "hit", "run", "hit", "explore",
	"hit", "run", "explore", "hit", "run", "cold", "hit", "explore", "run", "hit",
}

// poolProgram is one served program with the direct API's verdicts.
type poolProgram struct {
	in  input
	key string
	// diags is the direct compile's diagnostics.
	diags []string
	// tokens[t] replays to runs[t]; exploreSeeds[e] explores to
	// explored[e].
	tokens       []string
	runs         []runVerdict
	exploreSeeds []int64
	explored     []string
}

type runVerdict struct{ outcome, output string }

// daemon drives an in-process parcoachd over loopback HTTP.
type daemon struct {
	seed   int64
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	pool   []poolProgram
}

func setupDaemon(seed int64) (runner, error) {
	d := &daemon{seed: seed, srv: serve.New(serve.Config{Workers: 1, MaxConcurrent: daemonClients})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.hs = &http.Server{Handler: d.srv}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}}

	for k := 0; k < daemonPool; k++ {
		pp, err := d.prepare(generated(corpusFirst+uint64(k)), k)
		if err != nil {
			d.close()
			return nil, err
		}
		d.pool = append(d.pool, pp)
	}
	return d, nil
}

// prepare computes a pool program's verdicts through the direct API,
// then compiles it on the daemon and warms its sessions.
func (d *daemon) prepare(in input, k int) (poolProgram, error) {
	pp := poolProgram{in: in}
	p, err := compileFull(in)
	if err != nil {
		return pp, fmt.Errorf("%s: compile: %w", in.name, err)
	}
	pp.diags = diagnostics(p)
	for t := 0; t < daemonTokens; t++ {
		tok := sched.RandomToken(int64(mix(uint64(d.seed), uint64(k*daemonTokens+t)) >> 1))
		sc, err := sched.Parse(tok)
		if err != nil {
			return pp, err
		}
		res := p.Run(parcoach.RunOptions{Procs: in.procs, Threads: in.threads, MaxSteps: explore.DefaultMaxSteps, Scheduler: sc})
		pp.tokens = append(pp.tokens, tok)
		pp.runs = append(pp.runs, runVerdict{res.Outcome().String(), res.Output})
	}
	for e := 0; e < daemonExploreSeeds; e++ {
		es := int64(mix(uint64(d.seed)+1, uint64(k*daemonExploreSeeds+e)) >> 1)
		rep := p.Explore(daemonExploreOptions(in, es))
		pp.exploreSeeds = append(pp.exploreSeeds, es)
		pp.explored = append(pp.explored, verdictCounts(rep))
	}

	var cr compileResponse
	if err := d.post("/compile", map[string]any{"name": in.name, "source": in.src}, &cr); err != nil {
		return pp, err
	}
	pp.key = cr.Key
	var rr runResponse
	if err := d.post("/run", pp.runBody(0), &rr); err != nil {
		return pp, err
	}
	var er exploreResponse
	if err := d.post("/explore", pp.exploreBody(0), &er); err != nil {
		return pp, err
	}
	return pp, nil
}

func daemonExploreOptions(in input, seed int64) parcoach.ExploreOptions {
	return parcoach.ExploreOptions{
		Strategy: parcoach.ExploreRandom, Schedules: daemonExploreSchedules, Seed: seed,
		Procs: in.procs, Threads: in.threads, Workers: 1,
	}
}

func diagnostics(p *parcoach.Program) []string {
	out := []string{}
	for _, d := range p.Diagnostics() {
		out = append(out, d.String())
	}
	return out
}

func verdictCounts(rep *parcoach.ExplorationReport) string {
	out := ""
	for _, v := range rep.Verdicts {
		out += fmt.Sprintf("%s×%d ", v.Outcome, v.Count)
	}
	return out
}

// The response shapes the benchmark reads (a subset of the daemon's).
type compileResponse struct {
	Key         string   `json:"key"`
	Cached      bool     `json:"cached"`
	Diagnostics []string `json:"diagnostics"`
}

type runResponse struct {
	Outcome string `json:"outcome"`
	Output  string `json:"output"`
}

type exploreResponse struct {
	Schedules int `json:"schedules"`
	Verdicts  []struct {
		Outcome string `json:"outcome"`
		Count   int    `json:"count"`
	} `json:"verdicts"`
}

func (e exploreResponse) counts() string {
	out := ""
	for _, v := range e.Verdicts {
		out += fmt.Sprintf("%s×%d ", v.Outcome, v.Count)
	}
	return out
}

// runBody is the /run request replaying the program's t-th token.
func (pp poolProgram) runBody(t int) map[string]any {
	return map[string]any{"key": pp.key, "procs": pp.in.procs, "threads": pp.in.threads,
		"maxSteps": explore.DefaultMaxSteps, "schedule": pp.tokens[t]}
}

// exploreBody is the /explore request with the program's e-th seed.
func (pp poolProgram) exploreBody(e int) map[string]any {
	return map[string]any{"key": pp.key, "procs": pp.in.procs, "threads": pp.in.threads,
		"maxSteps": explore.DefaultMaxSteps, "strategy": "random", "schedules": daemonExploreSchedules,
		"seed": pp.exploreSeeds[e], "workers": 1}
}

// post sends a JSON request and decodes a 2xx answer into out.
func (d *daemon) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (d *daemon) clients() int { return daemonClients }
func (d *daemon) cycle() int   { return len(daemonCycle) }

func (d *daemon) close() {
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
}

// request is op i's request: its kind, pool program and variant.
type request struct {
	kind string
	pp   poolProgram
	arg  int
	// source is the cold compile's never-seen source.
	source string
}

func (d *daemon) request(i, pass int) request {
	h := mix(uint64(d.seed), uint64(i))
	r := request{kind: daemonCycle[(i/daemonClients)%len(daemonCycle)], pp: d.pool[h%daemonPool]}
	switch r.kind {
	case "run":
		r.arg = int(h>>32) % daemonTokens
	case "explore":
		r.arg = int(h>>32) % daemonExploreSeeds
	case "cold":
		r.source = fmt.Sprintf("%s// cold request %d.%d.%d\n", r.pp.in.src, d.seed, pass, i)
	}
	return r
}

func (d *daemon) op(i, pass int, sp spanner) sample {
	r := d.request(i, pass)
	s := sample{kind: r.kind}
	start := time.Now()
	var err error
	end := sp.span("serve")
	switch r.kind {
	case "hit", "cold":
		src := r.pp.in.src
		if r.kind == "cold" {
			src = r.source
		}
		var cr compileResponse
		if err = d.post("/compile", map[string]any{"name": r.pp.in.name, "source": src}, &cr); err == nil {
			switch {
			case cr.Cached != (r.kind == "hit"):
				s.failure = fmt.Sprintf("%s compile answered cached=%t", r.kind, cr.Cached)
			case !slices.Equal(cr.Diagnostics, r.pp.diags):
				s.failure = fmt.Sprintf("diagnostics %q, direct API %q", cr.Diagnostics, r.pp.diags)
			}
		}
	case "run":
		var rr runResponse
		if err = d.post("/run", r.pp.runBody(r.arg), &rr); err == nil {
			if want := r.pp.runs[r.arg]; rr.Outcome != want.outcome || rr.Output != want.output {
				s.failure = fmt.Sprintf("run %s: outcome %s, direct API %s", r.pp.tokens[r.arg], rr.Outcome, want.outcome)
			}
		}
		s.schedules = 1
	case "explore":
		var er exploreResponse
		if err = d.post("/explore", r.pp.exploreBody(r.arg), &er); err == nil {
			if got, want := er.counts(), r.pp.explored[r.arg]; got != want {
				s.failure = fmt.Sprintf("explore verdicts %q, direct API %q", got, want)
			}
		}
		s.schedules = er.Schedules
	}
	end()
	s.verdict = time.Since(start)
	if r.kind == "cold" {
		s.compile = s.verdict
	}
	if err != nil {
		s.failure = fmt.Sprintf("%s %s: %v", r.kind, r.pp.in.name, err)
	}
	return s
}

// probe times the direct in-process call for every traced request's
// input: serve.http_overhead_s is the median of endpoint latency minus
// that direct time. Cold inputs compile uncached here, giving the
// compile layer's metrics on this workload.
func (d *daemon) probe(s []sample, m metrics) {
	comp := parcoach.NewCompiler(1)
	type warm struct {
		prog *parcoach.Program
		sess *interp.Session
	}
	progs := map[string]warm{}
	for _, pp := range d.pool {
		p, err := comp.Cached(pp.in.name, pp.in.src, parcoach.Options{Mode: parcoach.ModeFull})
		if err != nil {
			continue
		}
		target := p.Source
		if p.Instrumented != nil {
			target = p.Instrumented
		}
		progs[pp.in.src] = warm{p, interp.NewSession(target, interp.Options{
			Procs: pp.in.procs, Threads: pp.in.threads, MaxSteps: explore.DefaultMaxSteps, ValueCheck: true})}
	}
	var obs layerObs
	var overhead []float64
	byKind := map[string][]float64{}
	for _, x := range s {
		byKind[x.kind] = append(byKind[x.kind], x.verdict.Seconds())
		r := d.request(x.index, 1)
		w, ok := progs[r.pp.in.src]
		if !ok {
			continue
		}
		t := time.Now()
		switch r.kind {
		case "hit":
			comp.Cached(r.pp.in.name, r.pp.in.src, parcoach.Options{Mode: parcoach.ModeFull})
		case "cold":
			if p, err := parcoach.Compile(r.pp.in.name, r.source, parcoach.Options{Mode: parcoach.ModeFull, Workers: 1}); err == nil {
				obs.addCompile(p)
			}
		case "run":
			sc, err := sched.Parse(r.pp.tokens[r.arg])
			if err != nil {
				continue
			}
			res := w.sess.Run(sc)
			obs.addRun(res, time.Since(t), true)
		case "explore":
			opts := daemonExploreOptions(r.pp.in, r.pp.exploreSeeds[r.arg])
			opts.MaxSteps = explore.DefaultMaxSteps
			rep := explore.ExploreSession(w.sess, opts)
			obs.addExplore(rep, time.Since(t))
		}
		overhead = append(overhead, x.verdict.Seconds()-time.Since(t).Seconds())
	}
	for kind, name := range map[string]string{
		"hit": "serve.compile_hit_s.p50", "cold": "serve.compile_cold_s.p50",
		"run": "serve.run_s.p50", "explore": "serve.explore_s.p50",
	} {
		if v := byKind[kind]; len(v) > 0 {
			m.set(name, median(v), "s")
		}
	}
	if len(overhead) > 0 {
		m.set("serve.http_overhead_s", median(overhead), "s")
	}
	obs.setMetrics(m)

	st := d.srv.Snapshot()
	m.set("serve.cache_hit_rate", st.Cache.HitRate, "ratio")
	m.set("serve.queued", float64(st.Queue.Queued), "count")
	m.set("serve.rejected", float64(st.Queue.Rejected), "count")
}
