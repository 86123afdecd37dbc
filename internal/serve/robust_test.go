package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"parcoach/internal/chaos"
	"parcoach/internal/leakcheck"
)

// spinServeSrc loops effectively forever — the program a disconnect or
// watchdog test needs the daemon to be stuck inside.
const spinServeSrc = `
func main() {
	MPI_Init()
	var i = 0
	while i < 2000000000 {
		i = i + 1
	}
	MPI_Finalize()
}`

// disconnectBound is the asserted ceiling between a client disconnect
// and the daemon's accounting of it (handler returned, run aborted).
const disconnectBound = 10 * time.Second

// waitFor polls cond until it holds or the bound passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(disconnectBound)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s did not happen within %v", what, disconnectBound)
}

// TestRunClientDisconnectCancelsRun: a /run client that hangs up
// mid-run gets its run aborted within a bounded interval — the slot
// frees, the counters move, and the daemon serves the next request.
func TestRunClientDisconnectCancelsRun(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{})
	before := s.Snapshot()

	body, _ := json.Marshal(map[string]any{"name": "spin.mh", "source": spinServeSrc, "schedule": "rr"})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Let the request compile and enter the spinning run, then hang up.
	waitFor(t, "the run starting", func() bool { return s.Snapshot().Requests > before.Requests })
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request still returned a response")
	}
	waitFor(t, "the disconnect being counted", func() bool {
		st := s.Snapshot()
		return st.Robust.CanceledRequests > before.Robust.CanceledRequests &&
			st.Robust.CanceledRuns > before.Robust.CanceledRuns
	})

	// The daemon is healthy: the same artifact still answers.
	code, _ := postJSON(t, ts.URL+"/compile", map[string]any{"name": "clean.mh", "source": cleanSrc})
	if code != http.StatusOK {
		t.Fatalf("post-disconnect compile answered %d", code)
	}
}

// TestExploreStreamClientDisconnect is the hanging-then-disconnecting
// client regression: a streamed /explore whose client reads the start
// event and vanishes must cancel the exploration within a bounded
// interval instead of running the remaining budget for nobody.
func TestExploreStreamClientDisconnect(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{})
	before := s.Snapshot()

	// Slow every run down a little so the exploration is mid-flight —
	// deterministically — when the client hangs up.
	disarm := chaos.Arm(chaos.Config{
		"explore.run": {First: 1, Every: 1, Action: chaos.ActSleep, Sleep: 5 * time.Millisecond},
	})
	defer disarm()

	body, _ := json.Marshal(map[string]any{
		"name": "buggy.mh", "source": buggySrc,
		"strategy": "random", "schedules": 100000, "workers": 2, "stream": true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/explore", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read the first event — the client is now demonstrably mid-stream —
	// then disconnect.
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || !strings.Contains(line, `"start"`) {
		t.Fatalf("first stream event %q, err %v", line, err)
	}
	cancel()

	waitFor(t, "the exploration being canceled", func() bool {
		st := s.Snapshot()
		return st.Robust.CanceledRequests > before.Robust.CanceledRequests
	})
	// The exploration stopped far short of its 100k budget.
	if st := s.Snapshot(); st.Explore.Schedules-before.Explore.Schedules >= 100000 {
		t.Fatalf("disconnected exploration ran its full budget (%d schedules)", st.Explore.Schedules)
	}
}

// TestGuardedPanicAnswers500: a handler panic is quarantined at the
// middleware — the client gets a 500 with an error envelope, the
// counter moves, and the daemon keeps serving.
func TestGuardedPanicAnswers500(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{})
	disarm := chaos.Arm(chaos.Config{
		"serve.request": {First: 1, Action: chaos.ActPanic},
	})
	defer disarm()

	code, raw := postJSON(t, ts.URL+"/compile", map[string]any{"name": "clean.mh", "source": cleanSrc})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500; body %s", code, raw)
	}
	if !strings.Contains(string(raw), "panic quarantined at serve.request") {
		t.Fatalf("500 body does not identify the quarantine: %s", raw)
	}
	if got := s.Snapshot().Robust.QuarantinedPanics; got != 1 {
		t.Fatalf("QuarantinedPanics = %d, want 1", got)
	}

	// Arrival 2 passes through: the daemon survived its own bug.
	code, _ = postJSON(t, ts.URL+"/compile", map[string]any{"name": "clean.mh", "source": cleanSrc})
	if code != http.StatusOK {
		t.Fatalf("post-panic compile answered %d", code)
	}
}

// TestRunTimeoutWatchdog: Config.RunTimeout turns a wedged run into an
// answered request with outcome "timeout" instead of a hung slot.
func TestRunTimeoutWatchdog(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{RunTimeout: 100 * time.Millisecond})
	before := s.Snapshot()

	code, raw := postJSON(t, ts.URL+"/run", map[string]any{
		"name": "spin.mh", "source": spinServeSrc, "schedule": "rr",
	})
	if code != http.StatusOK {
		t.Fatalf("watchdogged run answered %d: %s", code, raw)
	}
	res := decode[runResponse](t, raw)
	if res.Outcome != "timeout" {
		t.Fatalf("watchdogged run outcome %q, want timeout", res.Outcome)
	}
	if st := s.Snapshot(); st.Robust.WatchdogRuns <= before.Robust.WatchdogRuns {
		t.Fatal("watchdog abort not counted in /stats")
	}
}

// TestStatsSurfacesRobustness: the /stats payload carries the
// robustness section with all four counters present as JSON numbers.
func TestStatsSurfacesRobustness(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	var robust map[string]int64
	if err := json.Unmarshal(payload["robust"], &robust); err != nil {
		t.Fatalf("stats lacks a robust section: %v", err)
	}
	for _, key := range []string{"canceledRequests", "quarantinedPanics", "canceledRuns", "watchdogRuns"} {
		if _, ok := robust[key]; !ok {
			t.Errorf("robust section lacks %q: %s", key, payload["robust"])
		}
	}
}

// TestRunThreadPanicAnswersInternalError: a panic inside a simulated
// thread's body is quarantined at the thread, not left to kill the
// daemon: /run answers with outcome internal-error naming the boundary,
// and the next request is served normally — free-running and
// serialized alike.
func TestRunThreadPanicAnswersInternalError(t *testing.T) {
	leakcheck.Check(t) // snapshot now, diff at cleanup
	_, ts := newTestServer(t, Config{})
	for _, schedule := range []string{"", "rr"} {
		disarm := chaos.Arm(chaos.Config{
			"interp.thread": {First: 1, Action: chaos.ActPanic},
		})
		code, raw := postJSON(t, ts.URL+"/run", map[string]any{
			"name": "clean.mh", "source": cleanSrc, "schedule": schedule,
		})
		disarm()
		if code != http.StatusOK {
			t.Fatalf("schedule %q: panicking run answered %d: %s", schedule, code, raw)
		}
		res := decode[runResponse](t, raw)
		if res.Outcome != "internal-error" || !strings.Contains(res.Error, "panic quarantined at interp.thread") {
			t.Fatalf("schedule %q: panicking run answered outcome %q error %q, want a quarantined internal-error",
				schedule, res.Outcome, res.Error)
		}

		code, raw = postJSON(t, ts.URL+"/run", map[string]any{
			"name": "clean.mh", "source": cleanSrc, "schedule": schedule,
		})
		if code != http.StatusOK || decode[runResponse](t, raw).Outcome != "clean" {
			t.Fatalf("schedule %q: post-panic run answered %d: %s", schedule, code, raw)
		}
	}
}
