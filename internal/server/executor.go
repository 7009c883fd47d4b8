package server

import (
	"fmt"
	"sync"
)

// executor is the server's fixed set of job slots with a supervisor: each
// slot is a goroutine pulling admitted jobs off an unbuffered channel (the
// blocking send is the dispatcher's backpressure). Unlike a generic pool,
// a slot that dies to a panic is isolated and replaced: the supervisor
// defers in the slot body finish the in-flight job with a typed failure and
// respawn the slot, so one poisonous job can never shrink serving capacity.
type executor struct {
	s     *Server
	tasks chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	inflight map[int]*Job
}

func newExecutor(s *Server, slots int) *executor {
	e := &executor{s: s, tasks: make(chan *Job), inflight: make(map[int]*Job)}
	e.wg.Add(slots)
	for i := 0; i < slots; i++ {
		go e.run(i)
	}
	return e
}

// submit hands a job to an idle slot, blocking while all are busy. Must
// not be called after close.
func (e *executor) submit(j *Job) { e.tasks <- j }

// close stops accepting jobs and waits for in-flight ones (including any
// restarted slots) to finish.
func (e *executor) close() {
	close(e.tasks)
	e.wg.Wait()
}

// run is one slot's life: execute jobs until the channel closes. The
// supervisor defer turns a panic escaping a job into (a) a typed terminal
// state for that job and (b) a fresh slot, then lets this goroutine die.
func (e *executor) run(id int) {
	defer e.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			j := e.take(id)
			e.s.slotPanicked(j, r)
			e.wg.Add(1)
			go e.run(id)
		}
	}()
	for j := range e.tasks {
		e.setInflight(id, j)
		e.s.runJob(j)
		e.take(id)
	}
}

func (e *executor) setInflight(id int, j *Job) {
	e.mu.Lock()
	e.inflight[id] = j
	e.mu.Unlock()
}

// take removes and returns the slot's in-flight job (nil if none).
func (e *executor) take(id int) *Job {
	e.mu.Lock()
	j := e.inflight[id]
	delete(e.inflight, id)
	e.mu.Unlock()
	return j
}

// panicError wraps a value recovered from an executor panic. Unwrap
// exposes error panics (e.g. an injected *fault.Error) to errors.As, so
// the failure taxonomy can distinguish an injected fault from a genuine
// host bug.
type panicError struct{ v any }

func (p *panicError) Error() string { return fmt.Sprintf("server: executor panicked: %v", p.v) }

func (p *panicError) Unwrap() error {
	if err, ok := p.v.(error); ok {
		return err
	}
	return nil
}
