// Package sched turns the free-running goroutine execution of the
// interpreter (internal/interp) into a controlled, serialized schedule:
// exactly one simulated thread runs at a time, and a pluggable Scheduler
// decides, at every statement boundary and every blocking transition,
// which enabled thread runs next.
//
// Under a Controller every simulated thread — rank mains and team
// workers alike — is a pooled coroutine (iter.Pull), and one driver
// goroutine per run resumes whichever thread the scheduler picked. A
// thread hands control back at three points: Gate.Yield when the
// scheduler picks another thread at a statement boundary, Park when the
// thread blocks in the monitor, and its exit. A handoff is a direct
// coroutine switch; no channel, select or goroutine wakeup is involved.
//
// The Controller piggybacks on the blocking kernel (internal/monitor):
// thread creation (monitor.Spawn) and every wait in the simulated
// runtimes (monitor.NewWaiterLocked / Waiter.Await) already funnel
// through the monitor, so its scheduler hooks tell the controller
// precisely when a thread is created, when the running thread parks,
// when a parked thread becomes runnable again, and when a thread exits.
// Because only the resumed thread ever touches simulation state, a run is
// a deterministic function of the scheduler's decisions — which is what
// makes recorded schedules replayable and exhaustive enumeration
// (internal/explore) possible.
package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"parcoach/internal/monitor"
	"parcoach/internal/pipeline"
)

// ThreadID identifies one simulated thread, assigned in creation order:
// the MPI process mains get 0..procs-1, forked team workers get ids in
// fork order. Under serialization creation order is deterministic, so
// ids are stable across runs of the same schedule.
type ThreadID int

// Choice is one scheduling decision: the sorted set of runnable threads
// and the context the scheduler may use to pick among them.
type Choice struct {
	// Enabled is the sorted, non-empty set of runnable threads. It is
	// the controller's live ready list, valid only for the duration of
	// the Next call: schedulers must not modify it, and those that
	// retain it must copy, as the DFS Recorder does.
	Enabled []ThreadID
	// Cur is the thread that just yielded, or -1 when the previous
	// holder parked or exited (it is then absent from Enabled).
	Cur ThreadID
	// Seq counts decisions since the run started.
	Seq int64
	// Sig is a positional state signature: a hash over every thread's
	// (id, liveness, last source line, executed-statement count). Two
	// interleavings that drove all threads to the same positions collide,
	// which is what lets the DFS exploration prune commuting schedules.
	// It is computed only for schedulers that ask for it (SigReader) and
	// only at branch points (more than one enabled thread); everywhere
	// else it is 0 and the per-statement path skips the hash.
	Sig uint64
}

// Scheduler picks the next thread to run. Implementations must be
// deterministic functions of their own state and the Choice sequence —
// that is the whole replayability contract.
type Scheduler interface {
	Next(c Choice) ThreadID
}

// SigReader is implemented by schedulers that may read Choice.Sig. The
// controller maintains the positional signature only when ReadsSig
// reports true at NewController; every other scheduler sees Sig == 0.
type SigReader interface {
	ReadsSig() bool
}

// TraceSource is implemented by schedulers (the DPORRecorder) that want
// the controller to record the run's event trace: one monitor.Event per
// scheduling decision, tagged with the object accesses the chosen thread
// performed until the next decision. NewController detects it and turns
// on per-gate access buffering.
type TraceSource interface {
	Scheduler
	EventTrace() *monitor.EventTrace
}

// ThreadPanic is the abort error of a serialized run whose simulated
// thread panicked outside any recovery of its own: the driver catches
// the panic at the coroutine boundary, aborts the run with it and runs
// the remaining threads to their exit.
type ThreadPanic struct {
	Value any
	Stack []byte
}

func (e *ThreadPanic) Error() string { return fmt.Sprintf("simulated thread panicked: %v", e.Value) }

//
// Controller: the serialized run's driver.
//

type gateState int

const (
	gateReady  gateState = iota // runnable (or running)
	gateParked                  // blocked in the monitor
	gateDone                    // thread exited
)

// Gate is the controller-side handle of one simulated thread. The
// interpreter threads carry their gate and call Yield on every statement.
type Gate struct {
	ctl *Controller
	id  ThreadID
	// co is the coroutine running this thread's body: bound by Spawn,
	// cleared by the driver once the body exited.
	co *coro

	// Guarded by ctl.mu.
	state gateState
	line  int   // last yielded source line
	steps int64 // statements executed
	// sig caches this gate's contribution to the controller's
	// incremental positional-state signature; dirty marks it stale
	// (fields above changed since it was computed).
	sig   uint64
	dirty bool

	// tracing mirrors "the controller records an event trace"; the
	// interpreter reads it once per thread context so the per-access
	// fast path is a plain bool test.
	tracing bool
	// acc buffers the object accesses of the current event. Only the
	// owning thread appends (it is the only one running), and every
	// flush into the controller's trace happens while that thread is the
	// running one (Yield, park, exit and an abort it raises), so the
	// buffer needs no lock. Post-abort stragglers keep appending
	// harmlessly; the buffer is reset when the gate is recycled.
	acc []monitor.Access
}

// ID returns the thread id.
func (g *Gate) ID() ThreadID { return g.id }

// Tracing reports whether the controller records an event trace; when
// false, Access calls are wasted work and callers should skip tagging.
func (g *Gate) Tracing() bool { return g.tracing }

// Access tags the current event with one object access. Call only from
// the gate's own thread (the running one).
func (g *Gate) Access(o monitor.Obj, kind monitor.AccessKind) {
	g.acc = append(g.acc, monitor.Access{Obj: o, Kind: kind})
}

// Controller serializes one run. It implements the monitor's scheduler
// hook interface.
//
// The controller has no lock: every call into it — decisions, hooks,
// forks, spawns — comes from the run's single logical thread of control
// (the simulated thread being resumed, or the driver between resumes),
// and each coroutine switch orders one step of that thread before the
// next. The only entry from outside the run is Interrupt, an atomic
// request the running thread or the driver acts on. The session reads
// Counts and calls Recycle only after the run drained.
type Controller struct {
	sched Scheduler
	mon   *monitor.Monitor
	gates []*Gate
	// holder is the thread the scheduler picked last (the one running
	// or about to be resumed), -1 when none is runnable.
	holder ThreadID
	seq    int64
	// switches counts decisions whose pick differs from Choice.Cur (a
	// parked or exited holder's successor always counts).
	switches int64
	isOff    bool
	owner    map[interface{}]*Gate // monitor waiter → parked gate
	// intr holds the abort error Interrupt requested from outside the
	// run, nil when none is pending.
	intr atomic.Pointer[error]

	// ready is the sorted id set of runnable gates, maintained
	// incrementally on every state transition. Decisions are then
	// O(enabled) instead of O(every gate ever forked) — a run that
	// keeps entering parallel regions forks a fresh team each time, and
	// scanning the accumulated dead gates once per statement turns such
	// runs quadratic (the step-limit abort of a reduced looping program
	// would take hours instead of seconds).
	ready []ThreadID

	// Incremental positional-state signature, maintained only when the
	// scheduler reads it (sigOn): xsig is the XOR of every gate's cached
	// per-gate FNV contribution. Gates whose position changed since
	// their contribution was computed sit on the dirty list; signature
	// folds them in lazily, so long single-threaded stretches (one dirty
	// gate, many statements) never pay a whole-gate-set rehash and
	// nothing on the per-statement path allocates.
	sigOn bool
	xsig  uint64
	dirty []*Gate

	// trace, when non-nil, is the run's event trace (the scheduler
	// implements TraceSource): choose closes the previous event by
	// flushing the holder's access buffer and opens one for its pick.
	// branchN counts multi-enabled decisions, aligning Event.Branch with
	// the Recorder's branch-point indices.
	trace   *monitor.EventTrace
	branchN int

	// Driver state. procs rank gates are pre-registered; Spawn binds
	// coroutines to gates in id order (bound counts them) and starts the
	// driver once every rank main is bound. running counts bound
	// coroutines whose body has not exited. wake rouses a driver that
	// has nothing runnable (see drive); driving lets Recycle wait for
	// the driver's last touch of the controller.
	procs   int
	bound   int
	running int
	wake    chan struct{}
	driving sync.WaitGroup

	// freeGates recycles gate structs across runs when the controller
	// itself is recycled.
	freeGates []*Gate
}

// ctlPool recycles controllers across runs of an exploration; see
// Recycle for the safety rule.
var ctlPool = sync.Pool{New: func() any { return new(Controller) }}

// NewController creates (or recycles) a controller with one
// pre-registered gate per MPI process (ids 0..procs-1), driven by s.
func NewController(s Scheduler, procs int) *Controller {
	c := ctlPool.Get().(*Controller)
	c.sched = s
	c.holder = -1
	c.seq = 0
	c.switches = 0
	c.isOff = false
	if c.owner == nil {
		c.owner = make(map[interface{}]*Gate)
	} else {
		clear(c.owner)
	}
	if c.wake == nil {
		c.wake = make(chan struct{}, 1)
	}
	select { // drop a wakeup the previous run left unconsumed
	case <-c.wake:
	default:
	}
	c.intr.Store(nil)
	c.procs, c.bound, c.running = procs, 0, 0
	c.sigOn = false
	if sr, ok := s.(SigReader); ok {
		c.sigOn = sr.ReadsSig()
	}
	c.xsig = 0
	c.dirty = c.dirty[:0]
	c.ready = c.ready[:0]
	c.trace = nil
	c.branchN = 0
	if ts, ok := s.(TraceSource); ok {
		c.trace = ts.EventTrace()
	}
	for i := 0; i < procs; i++ {
		c.newGate()
	}
	return c
}

func (c *Controller) newGate() *Gate {
	var g *Gate
	if n := len(c.freeGates); n > 0 {
		g = c.freeGates[n-1]
		c.freeGates = c.freeGates[:n-1]
	} else {
		g = new(Gate)
	}
	g.ctl = c
	g.id = ThreadID(len(c.gates))
	g.co = nil
	g.state = gateReady
	g.line = 0
	g.steps = 0
	g.dirty = false
	g.tracing = c.trace != nil
	g.acc = g.acc[:0]
	if c.sigOn {
		g.sig = g.contribution()
		c.xsig ^= g.sig
	}
	c.gates = append(c.gates, g)
	c.readyAdd(g.id)
	return g
}

// readyAdd inserts id into the sorted ready set. Freshly forked
// gates carry the highest id so far, so forks take the append fast
// path; only wakes of low-id threads pay the insertion walk.
func (c *Controller) readyAdd(id ThreadID) {
	n := len(c.ready)
	if n == 0 || c.ready[n-1] < id {
		c.ready = append(c.ready, id)
		return
	}
	i := sort.Search(n, func(k int) bool { return c.ready[k] >= id })
	if i < n && c.ready[i] == id {
		return
	}
	c.ready = append(c.ready, 0)
	copy(c.ready[i+1:], c.ready[i:])
	c.ready[i] = id
}

// readyRemove deletes id from the sorted ready set.
func (c *Controller) readyRemove(id ThreadID) {
	i := sort.Search(len(c.ready), func(k int) bool { return c.ready[k] >= id })
	if i < len(c.ready) && c.ready[i] == id {
		c.ready = append(c.ready[:i], c.ready[i+1:]...)
	}
}

// Recycle returns the controller and its gates to the pool. Only call
// once the run has fully drained (monitor.Drained); Recycle then waits
// for the driver's last steps (returning the final coroutine to its
// pool), after which nothing can reach the controller, so clean and
// aborted runs alike recycle here.
func (c *Controller) Recycle() {
	c.driving.Wait()
	c.freeGates = append(c.freeGates, c.gates...)
	c.gates = c.gates[:0]
	c.sched = nil
	c.mon = nil
	clear(c.owner)
	c.dirty = c.dirty[:0]
	c.ready = c.ready[:0]
	c.xsig = 0
	c.trace = nil
	ctlPool.Put(c)
}

// Counts reports the run's scheduling work: decisions taken (one per
// Scheduler.Next call) and switches (decisions whose pick is not the
// thread that just yielded). Both are pure functions of the schedule,
// so they are machine-independent. Call once the run has drained.
func (c *Controller) Counts() (decisions, switches int64) {
	return c.seq, c.switches
}

// ProcGate returns the pre-registered gate of the given rank's main
// thread.
func (c *Controller) ProcGate(rank int) *Gate {
	return c.gates[rank]
}

// Fork registers n new team-worker threads at a deterministic point of
// the schedule (the forking thread is the running one). The returned
// gates are enabled immediately; the runtime's next n Spawn calls bind
// the workers' bodies to them, in order.
func (c *Controller) Fork(n int) []*Gate {
	out := make([]*Gate, n)
	for i := range out {
		out[i] = c.newGate()
	}
	return out
}

// Bind installs the controller as mon's scheduling hook. Call once,
// after NewController and before launching the run; the run starts when
// the world spawns its last rank main.
func (c *Controller) Bind(mon *monitor.Monitor) {
	c.mon = mon
	mon.SetSched(c)
}

// Interrupt aborts the run with err from outside it (a canceled context,
// a watchdog). Aborting the monitor directly from another goroutine
// would race the running thread on the controller's state, so the
// request is only recorded: the running thread acts on it at its next
// statement boundary, or the driver at its next resume, or at once if
// the driver has nothing runnable. The first interrupt wins.
func (c *Controller) Interrupt(err error) {
	c.intr.CompareAndSwap(nil, &err)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// interrupted reports whether an interrupt is pending and, if so, aborts
// the run with it. Call only from the run's thread of control.
func (c *Controller) interrupted() bool {
	p := c.intr.Load()
	if p == nil {
		return false
	}
	c.mon.Abort(*p)
	return true
}

// Spawn binds fn, the body of a newly created simulated thread, to the
// lowest gate that has none: rank mains bind to the pre-registered rank
// gates, team workers to the gates their fork registered. The body runs
// when the scheduler first picks the gate. Binding the last rank main
// starts the run's driver.
func (c *Controller) Spawn(fn func()) {
	g := c.gates[c.bound]
	c.bound++
	c.running++
	g.co = getCoro(fn)
	if c.bound == c.procs {
		c.driving.Add(1)
		// The driver stays off the caller's goroutine: the caller
		// (World.Run) waits for the ranks, and a session can still
		// abandon a run whose threads never drain.
		pipeline.Spawn(c.drive)
	}
}

// drive is the run's driver: it takes the first decision, then resumes
// the picked thread's coroutine until the thread suspends or exits, and
// repeats. Once the run aborts it resumes every remaining coroutine
// until its body has exited (they cannot block: the monitor pre-signals
// every waiter of an aborted run and the controller stops switching).
func (c *Controller) drive() {
	defer c.driving.Done()
	c.choose(-1)
	for !c.isOff && !c.interrupted() {
		if c.holder < 0 {
			if c.running == 0 {
				return
			}
			// Threads are parked and none is runnable, yet the monitor
			// saw no deadlock: a live thread outside the controller's
			// view holds the run. Only an interrupt can move it on.
			<-c.wake
			continue
		}
		c.resume(c.gates[c.holder])
	}
	// Unwinding threads may still fork (and so append gates): re-read
	// the length on every iteration.
	for i := 0; i < len(c.gates); i++ {
		g := c.gates[i]
		for g.co != nil {
			c.resume(g)
		}
	}
}

// resume runs g's coroutine until it suspends or its body exits. An
// exited body's coroutine goes back to the pool; a panic that escaped
// the body aborts the run.
func (c *Controller) resume(g *Gate) {
	co := g.co
	if !co.resume() {
		return
	}
	g.co = nil
	c.running--
	p, stack := co.panicked, co.stack
	putCoro(co)
	if p != nil {
		c.mon.Abort(&ThreadPanic{Value: p, Stack: stack})
	}
}

// Yield offers a context switch at a statement boundary on the given
// source line. The calling thread must be the running one. If the
// scheduler picks another thread, the caller suspends until picked
// again.
func (g *Gate) Yield(line int) {
	if g.ctl.yield(g, line) {
		g.co.suspend()
	}
}

// yield takes the statement-boundary decision and reports whether it
// handed the run to another thread. A pending interrupt aborts the run
// here instead, so the caller's abort check stops it within one
// statement.
func (c *Controller) yield(g *Gate, line int) bool {
	if c.isOff || c.interrupted() {
		return false
	}
	g.line = line
	g.steps++
	if c.sigOn {
		c.markDirty(g)
	}
	return c.choose(g.id) != g.id
}

// contribution hashes the gate's position — (id, liveness, last line,
// executed-statement count) — with FNV-1a over a fixed stack buffer: no
// hasher object, no fmt, no string building. The id inside the hash
// keeps XOR combination safe against two gates swapping positions.
func (g *Gate) contribution() uint64 {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(g.id))
	binary.LittleEndian.PutUint64(buf[8:], uint64(g.state))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(g.line)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(g.steps))
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// markDirty queues the gate for a lazy signature update.
func (c *Controller) markDirty(g *Gate) {
	if !g.dirty {
		g.dirty = true
		c.dirty = append(c.dirty, g)
	}
}

// signature returns the incremental positional signature, folding in
// the gates whose position changed since the last decision point.
func (c *Controller) signature() uint64 {
	if len(c.dirty) > 0 {
		for _, g := range c.dirty {
			c.xsig ^= g.sig
			g.sig = g.contribution()
			c.xsig ^= g.sig
			g.dirty = false
		}
		c.dirty = c.dirty[:0]
	}
	return c.xsig
}

// flushEvent closes the current event: the holder's buffered
// accesses are appended to the trace. Every call site runs while the
// holder is the running thread (Yield, the park/exit hooks, and an abort
// it raises), so reading g.acc here never races the owner-side appends.
func (c *Controller) flushEvent() {
	if c.holder < 0 {
		return
	}
	g := c.gates[c.holder]
	if len(g.acc) > 0 {
		c.trace.Append(g.acc)
		g.acc = g.acc[:0]
	}
}

// choose asks the scheduler to pick among the enabled threads
// (which must include cur when cur yielded rather than parked) and makes
// the pick the holder, -1 when nothing is runnable. Invalid picks fall
// back to the lowest enabled id so a buggy scheduler cannot wedge the
// run.
func (c *Controller) choose(cur ThreadID) ThreadID {
	if c.trace != nil {
		c.flushEvent()
	}
	// The ready list itself is the enabled set: Next implementations
	// must neither retain nor modify it, and nothing changes it during
	// the call, so no per-decision copy is needed.
	enabled := c.ready
	if len(enabled) == 0 {
		c.holder = -1
		return -1
	}
	ch := Choice{Enabled: enabled, Cur: cur, Seq: c.seq}
	branch := -1
	if len(enabled) > 1 {
		if c.sigOn {
			ch.Sig = c.signature()
		}
		branch = c.branchN
		c.branchN++
	}
	c.seq++
	id := c.sched.Next(ch)
	valid := false
	for _, e := range enabled {
		if e == id {
			valid = true
			break
		}
	}
	if !valid {
		id = enabled[0]
	}
	if id != cur {
		c.switches++
	}
	c.holder = id
	if c.trace != nil {
		c.trace.Open(int(id), branch)
	}
	return id
}

//
// Monitor hook implementation. The monitor calls HolderParked,
// WaiterWoken, HolderExited and ReleaseAll with its own lock held; Spawn
// and Park without it.
//

// HolderParked records that the running thread blocked on w and picks
// the next thread; the parked thread suspends in Park.
func (c *Controller) HolderParked(w interface{}) {
	if c.isOff || c.holder < 0 {
		return
	}
	g := c.gates[c.holder]
	g.state = gateParked
	c.readyRemove(g.id)
	if c.sigOn {
		c.markDirty(g)
	}
	c.owner[w] = g
	c.choose(-1)
}

// WaiterWoken marks w's thread runnable again. The waker keeps running;
// the woken thread continues once the scheduler picks it.
func (c *Controller) WaiterWoken(w interface{}) {
	g := c.owner[w]
	if g == nil || c.isOff {
		return
	}
	delete(c.owner, w)
	g.state = gateReady
	c.readyAdd(g.id)
	if c.sigOn {
		c.markDirty(g)
	}
}

// Park suspends the thread that just parked on w (it called
// HolderParked and released the monitor lock). It returns once the
// driver resumes the thread: after the scheduler picked it again, or
// after the run aborted.
func (c *Controller) Park(w interface{}) {
	g := c.owner[w]
	if g == nil || c.isOff {
		return
	}
	g.co.suspend()
}

// HolderExited records that the running thread is done (its last
// monitor interaction) and picks the next thread.
func (c *Controller) HolderExited() {
	if c.isOff || c.holder < 0 {
		return
	}
	g := c.gates[c.holder]
	g.state = gateDone
	c.readyRemove(g.id)
	if c.sigOn {
		c.markDirty(g)
	}
	c.choose(-1)
}

// ReleaseAll switches the run to unwinding: it aborted, so every later
// scheduling call is a no-op and the driver resumes each remaining
// thread until it exits.
func (c *Controller) ReleaseAll() {
	if c.isOff {
		return
	}
	if c.trace != nil {
		// The running thread raised the abort (outside aborts arrive
		// through Interrupt and are raised by the thread or the driver),
		// so its final accesses — e.g. the MPI call that completed a
		// deadlock — flush here. Post-abort straggler accesses stay in
		// their gate buffers and are dropped at recycle.
		c.flushEvent()
	}
	c.isOff = true
}

//
// Scheduler implementations.
//

// RoundRobin rotates the run through the enabled threads in id order —
// the serialized analogue of the interpreter's historical deterministic
// schedule, and the reference the conformance suite pins against the
// golden files.
type RoundRobin struct {
	last ThreadID
}

// NewRoundRobin returns a fresh round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Next picks the smallest enabled id strictly greater than the previous
// pick, wrapping around.
func (s *RoundRobin) Next(c Choice) ThreadID {
	pick := c.Enabled[0]
	for _, id := range c.Enabled {
		if id > s.last {
			pick = id
			break
		}
	}
	s.last = pick
	return pick
}

// Random picks uniformly among the enabled threads with a seeded PRNG;
// the same seed reproduces the same schedule.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) *Random { return &Random{rng: rand.New(rand.NewSource(seed))} }

// Next picks uniformly among the enabled threads.
func (s *Random) Next(c Choice) ThreadID {
	return c.Enabled[s.rng.Intn(len(c.Enabled))]
}

// PCT is a probabilistic-concurrency-testing scheduler (Burckhardt et
// al.): every thread gets a random priority on first sight, the highest
// priority enabled thread runs, and at depth-1 randomly chosen decision
// points the running thread's priority drops below everyone else's. With
// depth d it finds any bug of preemption depth d with probability ≥
// 1/(n·k^(d-1)).
type PCT struct {
	rng     *rand.Rand
	depth   int
	horizon int64

	prio    map[ThreadID]int
	nextLow int
	changes map[int64]bool
}

// NewPCT returns a PCT scheduler with the given seed, priority-change
// depth (minimum 1) and decision horizon (the k in the probability
// bound; decision points beyond it never host a priority change).
func NewPCT(seed int64, depth int, horizon int64) *PCT {
	if depth < 1 {
		depth = 1
	}
	if horizon < 1 {
		horizon = 4096
	}
	rng := rand.New(rand.NewSource(seed))
	changes := make(map[int64]bool)
	for i := 0; i < depth-1; i++ {
		changes[rng.Int63n(horizon)] = true
	}
	return &PCT{rng: rng, depth: depth, horizon: horizon, prio: make(map[ThreadID]int), changes: changes}
}

// Next runs the highest-priority enabled thread, demoting the current
// one at the sampled change points.
func (s *PCT) Next(c Choice) ThreadID {
	for _, id := range c.Enabled {
		if _, ok := s.prio[id]; !ok {
			// Fresh threads draw a priority above all previous ones so
			// newly forked workers preempt (runs are short; the classic
			// formulation is equivalent up to the initial permutation).
			s.prio[id] = len(s.prio)*2 + s.rng.Intn(2)
		}
	}
	if s.changes[c.Seq] && c.Cur >= 0 {
		s.nextLow--
		s.prio[c.Cur] = s.nextLow
	}
	best := c.Enabled[0]
	for _, id := range c.Enabled[1:] {
		if s.prio[id] > s.prio[best] {
			best = id
		}
	}
	return best
}

// Replay follows a recorded branch-point trace: wherever more than one
// thread is enabled it takes the recorded pick, and past the end of the
// trace (or if the recorded pick is not enabled — a divergence) it falls
// back to the lowest enabled id. A run is a deterministic function of
// its branch decisions, so replaying a trace reproduces the run exactly.
type Replay struct {
	Trace []ThreadID

	pos      int
	diverged bool
}

// Next follows the trace at branch points.
func (s *Replay) Next(c Choice) ThreadID {
	if len(c.Enabled) == 1 {
		return c.Enabled[0]
	}
	pick := c.Enabled[0]
	if s.pos < len(s.Trace) {
		rec := s.Trace[s.pos]
		found := false
		for _, id := range c.Enabled {
			if id == rec {
				found = true
				break
			}
		}
		if found {
			pick = rec
		} else {
			s.diverged = true
		}
	}
	s.pos++
	return pick
}

// Diverged reports whether the replay failed to reproduce the recorded
// schedule: either the trace named a thread that was not enabled at some
// branch point, or (checked after the run) the run had fewer branch
// points than the trace has entries — both mean the program or its
// configuration differ from the recording.
func (s *Replay) Diverged() bool { return s.diverged || s.pos < len(s.Trace) }

// Branch is one observed decision point where the schedule genuinely
// branched (more than one thread enabled).
type Branch struct {
	// Sig is the positional state signature at the decision (0 unless
	// the Recorder asked for Signatures).
	Sig uint64
	// Enabled is the sorted runnable set.
	Enabled []ThreadID
	// Chosen is the thread the recorder picked.
	Chosen ThreadID
}

// Recorder drives a DFS exploration run: it follows Prefix at branch
// points, then defaults to the lowest enabled id, and records every
// branch point it passes so the exploration engine can enumerate the
// untaken alternatives.
type Recorder struct {
	Prefix []ThreadID
	// Signatures asks the controller for the positional signature at
	// every branch point (Branch.Sig); only state-hash pruning reads it,
	// so it is off unless the exploration prunes.
	Signatures bool

	Branches []Branch
	diverged bool
	// enabledBuf backs the Branch.Enabled copies: one growing buffer
	// per run instead of one allocation per branch point. Earlier
	// branches keep pointing into superseded backing arrays after a
	// growth — they are never written again, so the aliasing is safe.
	enabledBuf []ThreadID
}

// Reset rearms the recorder for a new run following prefix, keeping its
// branch and enabled-set buffers so one recorder serves a whole
// exploration worker without reallocating.
func (s *Recorder) Reset(prefix []ThreadID) {
	s.Prefix = prefix
	s.Branches = s.Branches[:0]
	s.enabledBuf = s.enabledBuf[:0]
	s.diverged = false
}

// ReadsSig implements SigReader.
func (s *Recorder) ReadsSig() bool { return s.Signatures }

// Next follows the prefix, records the branch, and defaults to the
// lowest enabled thread beyond the prefix.
func (s *Recorder) Next(c Choice) ThreadID {
	if len(c.Enabled) == 1 {
		return c.Enabled[0]
	}
	pos := len(s.Branches)
	pick := c.Enabled[0]
	if pos < len(s.Prefix) {
		rec := s.Prefix[pos]
		found := false
		for _, id := range c.Enabled {
			if id == rec {
				found = true
				break
			}
		}
		if found {
			pick = rec
		} else {
			s.diverged = true
		}
	}
	off := len(s.enabledBuf)
	s.enabledBuf = append(s.enabledBuf, c.Enabled...)
	s.Branches = append(s.Branches, Branch{
		Sig:     c.Sig,
		Enabled: s.enabledBuf[off:len(s.enabledBuf):len(s.enabledBuf)],
		Chosen:  pick,
	})
	return pick
}

// Diverged reports whether the prefix named a thread that was not
// enabled when its branch point was reached.
func (s *Recorder) Diverged() bool { return s.diverged }

// Trace returns the chosen thread at every branch point passed so far —
// the replay token payload of this run.
func (s *Recorder) Trace() []ThreadID {
	out := make([]ThreadID, len(s.Branches))
	for i, b := range s.Branches {
		out[i] = b.Chosen
	}
	return out
}

// DPORRecorder is a Recorder that additionally makes the controller
// record the run's event trace (it implements TraceSource): each
// scheduling decision becomes one monitor.Event carrying the object
// accesses of the chosen thread's step. The exploration engine analyzes
// the trace after the run (monitor.Analysis) and asks Candidates which
// reversals dynamic partial-order reduction requires.
type DPORRecorder struct {
	Recorder
	Events monitor.EventTrace
}

// EventTrace implements TraceSource.
func (s *DPORRecorder) EventTrace() *monitor.EventTrace { return &s.Events }

// Reset rearms the recorder and its event trace for a new run.
func (s *DPORRecorder) Reset(prefix []ThreadID) {
	s.Recorder.Reset(prefix)
	s.Events.Reset()
}

// Candidates answers the DPOR backtracking question for one race pair:
// which threads must be tried instead of the chosen one at the decision
// that started race event A, so that the reversal (B's side first) is
// reached. It combines the decision's enabled set with the per-thread
// next-access summaries the trace provides (each enabled thread's first
// recorded event after A) following the classic dynamic partial-order
// reduction rule:
//
//   - if B's thread p was enabled at the decision, {p} suffices;
//   - otherwise any enabled thread whose next step is in the causal past
//     of B reaches the reversal (one suffices; if the chosen thread
//     itself qualifies, the requirement is already met and nothing new
//     is needed);
//   - if no summary qualifies, every enabled alternate must be tried.
//
// The result appends into buf (reused by callers); an empty result means
// the decision already satisfies the race's backtracking requirement. A
// race whose decision was forced (Branch < 0) has no alternatives and
// always returns empty.
func (s *DPORRecorder) Candidates(an *monitor.Analysis, rc monitor.Race, buf []ThreadID) []ThreadID {
	out := buf[:0]
	_, d := s.Events.At(rc.A)
	if d < 0 || d >= len(s.Branches) {
		return out
	}
	br := &s.Branches[d]
	bt, _ := s.Events.At(rc.B)
	p := ThreadID(bt)
	for _, q := range br.Enabled {
		if q == p {
			if p == br.Chosen {
				return out
			}
			return append(out, p)
		}
	}
	// p was not enabled (blocked, or not yet forked). Check the chosen
	// thread's summary first: if its next step is already in B's causal
	// past, the explored branch covers the requirement.
	if k := an.NextEventOf(int(br.Chosen), rc.A); k >= 0 && k <= rc.B && an.HappensBefore(k, rc.B, &s.Events) {
		return out
	}
	for _, q := range br.Enabled {
		if q == br.Chosen {
			continue
		}
		if k := an.NextEventOf(int(q), rc.A); k >= 0 && k <= rc.B && an.HappensBefore(k, rc.B, &s.Events) {
			return append(out, q) // one element of the set suffices
		}
	}
	for _, q := range br.Enabled {
		if q != br.Chosen {
			out = append(out, q)
		}
	}
	return out
}

//
// Replay tokens: the printable, replayable name of a schedule.
//

// FormatTrace renders a branch trace as a replay token ("trace:0.2.1").
func FormatTrace(trace []ThreadID) string {
	parts := make([]string, len(trace))
	for i, id := range trace {
		parts[i] = strconv.Itoa(int(id))
	}
	return "trace:" + strings.Join(parts, ".")
}

// RandomToken renders the replay token of a seeded random schedule.
func RandomToken(seed int64) string { return fmt.Sprintf("rand:%d", seed) }

// PCTToken renders the replay token of a PCT schedule.
func PCTToken(seed int64, depth int) string { return fmt.Sprintf("pct:%d:%d", seed, depth) }

// RoundRobinToken is the replay token of the deterministic round-robin
// schedule.
const RoundRobinToken = "rr"

// Parse limits. Replay tokens arrive over trust boundaries (the
// parcoachd HTTP API forwards client-supplied tokens straight here), so
// Parse enforces hard caps instead of letting a hostile token allocate
// or loop proportionally to its content: tokens longer than
// MaxTokenLen are rejected before any splitting, trace ids must lie in
// [0, MaxTraceID] (thread ids are creation-ordered and a run can never
// have more threads than it has scheduling decisions), and PCT depths
// must lie in [1, MaxPCTDepth].
const (
	// MaxTokenLen bounds the accepted token length (1 MiB): a trace
	// token of that size already names a schedule with ~500k branch
	// points, far beyond anything the exploration engine emits.
	MaxTokenLen = 1 << 20
	// MaxTraceID bounds a single thread id inside a trace token.
	MaxTraceID = 1 << 20
	// MaxPCTDepth bounds the pct token's priority-change depth.
	MaxPCTDepth = 1 << 10
)

// quote truncates hostile-length tokens for error messages, so the
// error for a multi-MB token is not itself multi-MB.
func quote(token string) string {
	const max = 64
	if len(token) > max {
		return fmt.Sprintf("%q... (%d bytes)", token[:max], len(token))
	}
	return fmt.Sprintf("%q", token)
}

// numErr names a strconv failure without echoing the offending field:
// strconv errors quote the full input, which for a hostile token would
// make the error message itself unbounded.
func numErr(err error) string {
	if errors.Is(err, strconv.ErrRange) {
		return "integer out of range"
	}
	return "not an integer"
}

// Parse turns a replay token back into the scheduler that produced the
// run: "rr", "rand:<seed>", "pct:<seed>:<depth>", or "trace:0.2.1".
// Hostile input — oversized tokens, out-of-range ids, malformed numbers
// — is rejected with an error, never a panic or unbounded allocation.
func Parse(token string) (Scheduler, error) {
	if len(token) > MaxTokenLen {
		return nil, fmt.Errorf("sched: token too long (%d bytes, max %d)", len(token), MaxTokenLen)
	}
	switch {
	case token == RoundRobinToken:
		return NewRoundRobin(), nil
	case strings.HasPrefix(token, "rand:"):
		seed, err := strconv.ParseInt(token[len("rand:"):], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sched: bad random token %s: %s", quote(token), numErr(err))
		}
		return NewRandom(seed), nil
	case strings.HasPrefix(token, "pct:"):
		parts := strings.Split(token[len("pct:"):], ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("sched: bad pct token %s (want pct:<seed>:<depth>)", quote(token))
		}
		seed, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sched: bad pct seed in %s: %s", quote(token), numErr(err))
		}
		depth, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("sched: bad pct depth in %s: %s", quote(token), numErr(err))
		}
		if depth < 1 || depth > MaxPCTDepth {
			return nil, fmt.Errorf("sched: pct depth %d out of range [1, %d] in %s", depth, MaxPCTDepth, quote(token))
		}
		return NewPCT(seed, depth, 0), nil
	case strings.HasPrefix(token, "trace:"):
		body := token[len("trace:"):]
		var trace []ThreadID
		if body != "" {
			for _, part := range strings.Split(body, ".") {
				id, err := strconv.Atoi(part)
				if err != nil {
					return nil, fmt.Errorf("sched: bad trace token %s: %s", quote(token), numErr(err))
				}
				if id < 0 || id > MaxTraceID {
					return nil, fmt.Errorf("sched: trace id %d out of range [0, %d] in %s", id, MaxTraceID, quote(token))
				}
				trace = append(trace, ThreadID(id))
			}
		}
		return &Replay{Trace: trace}, nil
	}
	return nil, fmt.Errorf("sched: unknown schedule token %s", quote(token))
}
