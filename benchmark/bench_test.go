package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"parcoach"
	"parcoach/internal/workload"
)

// inputsOf renders a set-up runner's generated inputs, so two set-ups
// can be compared.
func inputsOf(t *testing.T, r runner) string {
	t.Helper()
	switch x := r.(type) {
	case *fig1:
		var tokens []string
		for i := 0; i < 20; i++ {
			tokens = append(tokens, x.token(i))
		}
		return fmt.Sprint(tokens)
	case *dpor:
		var ops []input
		for i := 0; i < 20; i++ {
			ops = append(ops, x.input(i))
		}
		return fmt.Sprint(ops)
	case *campaign:
		var ops []string
		for i := 0; i < 20; i++ {
			ops = append(ops, fmt.Sprint(x.input(i), x.options(i, false).Seed))
		}
		return fmt.Sprint(ops)
	case *daemon:
		var out []string
		for _, pp := range x.pool {
			out = append(out, pp.in.src, fmt.Sprint(pp.tokens, pp.exploreSeeds))
		}
		return fmt.Sprint(out)
	}
	t.Fatalf("unknown runner %T", r)
	return ""
}

func setup(t *testing.T, name string, seed int64) runner {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	r, err := w.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	return r
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := setup(t, w.name, 5), setup(t, w.name, 5)
		if inputsOf(t, a) != inputsOf(t, b) {
			t.Errorf("%s: two set-ups with seed 5 generated different inputs", w.name)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	for _, w := range workloads {
		if inputsOf(t, setup(t, w.name, 5)) == inputsOf(t, setup(t, w.name, 6)) {
			t.Errorf("%s: seeds 5 and 6 generated the same inputs", w.name)
		}
	}
}

// TestSameSeedSameCounts checks the deterministic counts: the schedules
// DPOR explores and the campaign report are functions of the seed.
func TestSameSeedSameCounts(t *testing.T) {
	explored := func() []int {
		r := setup(t, "dpor", 5)
		var n []int
		for i := 0; i < 12; i++ {
			s := r.op(i, 0, spanner{})
			n = append(n, s.layer.explSchedules, s.layer.sleepSkips)
		}
		return n
	}
	if a, b := explored(), explored(); !slices.Equal(a, b) {
		t.Errorf("explore.schedules differ between two seed-5 runs: %v vs %v", a, b)
	}

	reportHash := func() string {
		c := setup(t, "campaign", 5).(*campaign)
		h := sha256.New()
		for i := 0; i < 2; i++ {
			rep, err := parcoach.Campaign(c.options(i, false))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(h).Encode(rep); err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	if a, b := reportHash(), reportHash(); a != b {
		t.Errorf("campaign report hash differs between two seed-5 runs: %s vs %s", a, b)
	}
}

// firstOp is the first op index whose sample satisfies pick.
func firstOp(t *testing.T, n int, pick func(i int) bool) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if pick(i) {
			return i
		}
	}
	t.Fatal("no op matches")
	return -1
}

// TestWrongExpectationFails plants a wrong expected verdict in every
// workload and checks the op is counted as failed, while the same op
// with the true expectation passes.
func TestWrongExpectationFails(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		f := setup(t, "fig1", 5).(*fig1)
		if s := f.op(3, 0, spanner{}); s.failure != "" {
			t.Fatalf("true expectation failed: %s", s.failure)
		}
		f.want = parcoach.RunCheckAbort
		if s := f.op(3, 0, spanner{}); s.failure == "" {
			t.Error("expecting a check abort from a correct Figure 1 program did not fail")
		}
	})
	t.Run("dpor", func(t *testing.T) {
		d := setup(t, "dpor", 5).(*dpor)
		// entry is the corpus entry op i explores.
		entry := func(i int) *input { return &d.inputs[(d.start+i)%len(d.inputs)] }
		i := firstOp(t, len(d.inputs), func(i int) bool {
			return entry(i).bug == workload.BugRankDependentCollective
		})
		if s := d.op(i, 0, spanner{}); s.failure != "" || s.missed {
			t.Fatalf("true expectation failed: %q missed=%t", s.failure, s.missed)
		}
		entry(i).bug = workload.BugNone
		if s := d.op(i, 0, spanner{}); s.failure == "" {
			t.Error("labeling a planted bug clean did not fail")
		}
		c := firstOp(t, len(d.inputs), func(i int) bool { return entry(i).mustReach != nil })
		if s := d.op(c, 0, spanner{}); s.failure != "" {
			t.Fatalf("convergent-last-writer: %s", s.failure)
		}
		deadlock := parcoach.RunDeadlock
		entry(c).mustReach = &deadlock
		if s := d.op(c, 0, spanner{}); s.failure == "" {
			t.Error("expecting a deadlock from the convergent-last-writer program did not fail")
		}
		m := firstOp(t, len(d.inputs), func(i int) bool { return d.known[entry(i).name] })
		if s := d.op(m, 0, spanner{}); !s.missed || s.failure != "" {
			t.Fatalf("known miss %s: missed=%t failure=%q", entry(m).name, s.missed, s.failure)
		}
		d.known = map[string]bool{}
		if s := d.op(m, 0, spanner{}); s.failure == "" {
			t.Errorf("a miss of %s outside the known set did not fail", entry(m).name)
		}
	})
	t.Run("campaign", func(t *testing.T) {
		c := setup(t, "campaign", 5).(*campaign)
		i := firstOp(t, len(c.inputs), func(i int) bool { return len(c.input(i).want) > 0 })
		if s := c.op(i, 0, spanner{}); s.failure != "" {
			t.Fatalf("true expectation failed: %s", s.failure)
		}
		c.inputs[(c.start+i)%len(c.inputs)].want = nil
		if s := c.op(i, 0, spanner{}); s.failure == "" {
			t.Error("expecting no caught bug from a planted-bug corpus did not fail")
		}
	})
	t.Run("daemon", func(t *testing.T) {
		d := setup(t, "daemon", 5).(*daemon)
		i := firstOp(t, 100, func(i int) bool { return d.request(i, 0).kind == "run" })
		if s := d.op(i, 0, spanner{}); s.failure != "" {
			t.Fatalf("true expectation failed: %s", s.failure)
		}
		r := d.request(i, 0)
		for k := range d.pool {
			if d.pool[k].key == r.pp.key {
				d.pool[k].runs[r.arg].outcome = "deadlock"
			}
		}
		if s := d.op(i, 0, spanner{}); s.failure == "" {
			t.Error("a wrong expected /run outcome did not fail")
		}
	})
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if g := got[i]; g.Name != want[i].name || g.Unit != want[i].unit || g.Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, g, want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs)
	same("per_layer", spec.PerLayer, perLayer)
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json names %q", i, w.Name)
		}
	}
}

// TestRunPrintsEveryMetric runs a short untraced and traced run and
// checks each prints exactly the metrics BENCHMARK.json declares.
func TestRunPrintsEveryMetric(t *testing.T) {
	w, _ := findWorkload("daemon")
	check := func(traced bool, want []def) {
		res, err := run(w, 5, time.Second, traced, t.TempDir()+"/spans.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		if res.out.Failed != 0 || !res.out.Correct {
			t.Errorf("traced=%t: %d of %d ops failed:\n%s", traced, res.out.Failed, res.out.Attempted, strings.Join(res.info, "\n"))
		}
		if len(res.out.Metrics) != len(want) {
			t.Errorf("traced=%t: printed %d metrics, want %d", traced, len(res.out.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.out.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("traced=%t: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
			}
		}
	}
	check(false, endToEndDefs)
	check(true, perLayer)
}
