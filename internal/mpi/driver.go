package mpi

import (
	"iter"

	"hydee/internal/transport"
)

// task is one coroutine of a run: a rank incarnation, a recovery
// coordinator or a recovery turn. resume runs it to its next wait or its
// end, reporting false at the end; yield, called inside the task, hands
// control back.
type task struct {
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
}

// driver runs every task of one run on the goroutine that called
// RunContext, one at a time, and is its network's transport.Driver: a wait
// files its request and yields, and once no task is ready the run's loop
// (Runtime.drive) enters every filed wait as one plane mutation. The plane
// names each wait it settles to Ready, which queues its task. Tasks resume
// in the order they became ready, which the run alone fixes, so a run
// interleaves the same way on any number of cores.
type driver struct {
	cur          *task
	ready, spare []*task
	// filed holds the waits filed since the last Enter; waiter[id] is the
	// task whose wait endpoint id holds (ranks, then the recovery
	// endpoint).
	filed  []*transport.Endpoint
	waiter []*task
	// live counts the tasks not ended, resumes the resumes since the
	// watchdog last looked.
	live, resumes int
}

// spawn starts f as a task, ready to run.
func (d *driver) spawn(f func()) {
	t := &task{}
	t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		f()
	})
	d.live++
	d.ready = append(d.ready, t)
}

// Park implements transport.Driver: the running task files e's wait and
// yields until Ready.
func (d *driver) Park(e *transport.Endpoint) {
	t := d.cur
	d.waiter[e.ID()] = t
	d.filed = append(d.filed, e)
	t.yield(struct{}{})
}

// Ready implements transport.Driver.
func (d *driver) Ready(e *transport.Endpoint) { d.ready = append(d.ready, d.waiter[e.ID()]) }

// runReady resumes the ready tasks in order, and those they make ready,
// until none is left.
func (d *driver) runReady() {
	for len(d.ready) > 0 {
		batch := d.ready
		d.ready = d.spare[:0]
		for _, t := range batch {
			d.cur = t
			if _, ok := t.resume(); !ok {
				d.live--
			}
		}
		d.resumes += len(batch)
		clear(batch)
		d.spare = batch
	}
	d.cur = nil
}
