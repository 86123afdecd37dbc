package sched

import (
	"iter"
	"runtime/debug"
	"sync"
)

// coro is one pooled coroutine: a long-lived iter.Pull generator that
// runs simulated-thread bodies one after another. A controller's driver
// resumes it (resume) whenever the scheduler picks its thread, and the
// thread hands control back (suspend) when the scheduler picks another
// one or it parks. A handoff is therefore a direct coroutine switch, not
// a channel send plus a goroutine park and wakeup.
//
// Coroutines are pooled for the same reason pipeline.Spawn pools
// goroutines: the interpreter's recursive statement walk grows a fresh
// stack through repeated copies, and an exploration runs thousands of
// simulated threads. A coroutine keeps its grown stack between bodies.
type coro struct {
	next  func() (bool, bool)
	yield func(bool) bool
	// task is the body to run on the next resume of an idle coroutine.
	task func()
	// panicked and stack describe a panic that escaped the last body;
	// the driver reads them once the body has exited.
	panicked any
	stack    []byte
}

var coroPool struct {
	mu   sync.Mutex
	idle []*coro
}

// getCoro returns an idle coroutine (or a new one) primed to run task on
// its first resume. Reuse is LIFO, so the hottest stack goes out first.
func getCoro(task func()) *coro {
	coroPool.mu.Lock()
	var co *coro
	if n := len(coroPool.idle); n > 0 {
		co = coroPool.idle[n-1]
		coroPool.idle[n-1] = nil
		coroPool.idle = coroPool.idle[:n-1]
	}
	coroPool.mu.Unlock()
	if co == nil {
		co = new(coro)
		co.next, _ = iter.Pull(co.loop)
	}
	co.task = task
	return co
}

// putCoro returns an idle coroutine (its body exited) to the pool.
func putCoro(co *coro) {
	co.panicked, co.stack = nil, nil
	coroPool.mu.Lock()
	coroPool.idle = append(coroPool.idle, co)
	coroPool.mu.Unlock()
}

// loop is the coroutine body: run the current task, report its exit,
// and wait in idle for the next one. The pool never stops a coroutine,
// so yield never reports a stop.
func (co *coro) loop(yield func(bool) bool) {
	co.yield = yield
	for {
		co.run()
		co.idle()
	}
}

// run executes the current task, catching a panic that escapes it so the
// coroutine survives for reuse and the driver can fail the run with the
// panicking stack instead of losing it in iter.Pull's re-panic.
func (co *coro) run() {
	defer func() {
		if p := recover(); p != nil {
			co.panicked, co.stack = p, debug.Stack()
		}
	}()
	task := co.task
	co.task = nil
	task()
}

// idle reports the body's exit to the driver and parks the coroutine
// until it is handed its next task. A pooled coroutine waits here
// between runs.
func (co *coro) idle() { co.yield(true) }

// suspend hands control back to the driver from inside a body; it
// returns when the driver resumes this coroutine.
func (co *coro) suspend() { co.yield(false) }

// resume runs the coroutine until its body suspends or exits; it
// reports whether the body exited.
func (co *coro) resume() (exited bool) {
	exited, _ = co.next()
	return exited
}
