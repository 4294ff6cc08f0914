// Package simclock is a small deterministic discrete-event simulation
// engine. The cluster simulator uses it to account for the time cost of
// heartbeats, peering, disk I/O, network transfers and decode CPU without
// running in real time.
//
// Events scheduled for the same instant fire in scheduling order, making
// runs fully reproducible: every event is ordered by (time, sequence
// number) and every scheduling call — At, After, Queue.Submit,
// DelayLine.AddArg — consumes exactly one sequence number, so the firing
// order is a pure function of the scheduling order regardless of where
// the event waits.
//
// Events wait in one of two places. The general case is an implicit 4-ary
// min-heap of pointer-free {at, seq, slot} entries; the callback itself
// lives in a slab record indexed by slot, and fired slots are recycled
// through a free-index stack. Sifting therefore moves 24-byte scalar
// entries the garbage collector never scans. Events that fire a
// fixed delay after they are scheduled (network deliveries) skip the heap
// entirely and wait on a DelayLine, a FIFO ring that is sorted by
// construction. Run merges the heap top with the line heads.
//
// The hot path is allocation-free. Callbacks are fixed-arg pairs
// (fn func(any), arg any) — func values and pointers are pointer-shaped,
// so storing them in an `any` does not allocate — and a Queue completion
// is a slab record that names its Queue, so running a job needs no node
// of its own. The closure-based At/After/Submit signatures remain for
// cold paths; hot callers use the *Arg variants with a pooled or
// long-lived argument.
package simclock

import (
	"fmt"
	"time"
)

// Time is simulated time since the start of the run.
type Time = time.Duration

// Sim is a discrete-event simulator. It is not safe for concurrent use;
// everything runs on the caller's goroutine inside Run.
type Sim struct {
	now Time
	seq uint64

	heap  []entry  // implicit 4-ary min-heap on (at, seq)
	calls []call   // slab of heap-event callbacks, indexed by entry.slot
	free  []uint32 // recycled slab slots

	lines []*DelayLine // fixed-delay FIFO lines, merged with the heap
}

// entry is one heap-scheduled event. It holds no pointers: the callback
// sits in the slab, so sifting copies plain scalars.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
}

func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// call is a slab record: the callback of one heap event. q is set for a
// Queue completion, which frees a server before fn runs.
type call struct {
	fn  func(any)
	arg any
	q   *Queue
}

// New returns a simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// callThunk adapts the closure-based scheduling API to the fixed-arg
// event representation.
func callThunk(a any) { a.(func())() }

// At schedules fn at absolute time t, which must not be in the past.
func (s *Sim) At(t Time, fn func()) { s.schedule(t, callThunk, fn, nil) }

// AtArg schedules fn(arg) at absolute time t without allocating.
func (s *Sim) AtArg(t Time, fn func(any), arg any) { s.schedule(t, fn, arg, nil) }

// After schedules fn d from now. Negative d is treated as zero.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, callThunk, fn, nil)
}

// AfterArg schedules fn(arg) d from now without allocating. Negative d is
// treated as zero.
func (s *Sim) AfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn, arg, nil)
}

func (s *Sim) schedule(t Time, fn func(any), arg any, q *Queue) {
	if t < s.now {
		panic(fmt.Sprintf("simclock: scheduling into the past (%v < %v)", t, s.now))
	}
	s.seq++
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = uint32(len(s.calls))
		s.calls = append(s.calls, call{})
	}
	s.calls[slot] = call{fn: fn, arg: arg, q: q}
	s.heap = append(s.heap, entry{at: t, seq: s.seq, slot: slot})
	heapUp(s.heap, len(s.heap)-1)
}

// heapUp restores the heap property from leaf i toward the root. The
// moving entry is held in registers and written once at its final slot.
func heapUp(h []entry, i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// heapDown restores the heap property from slot i toward the leaves. With
// four children per node the tree is half as deep as a binary heap, which
// pays off on the pop-heavy event loop.
func heapDown(h []entry, i int) {
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for k := c + 1; k < end; k++ {
			if h[k].before(&h[m]) {
				m = k
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// popHeap removes the earliest heap entry and returns its slab slot.
func (s *Sim) popHeap() uint32 {
	h := s.heap
	slot := h[0].slot
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 0 {
		heapDown(s.heap, 0)
	}
	return slot
}

// fire runs the heap event in slot. The record is cleared and its slot
// freed before anything runs, so the slab never pins a fired argument
// and whatever the callback schedules can reuse the slot. For a Queue
// completion the order — free the server, count the job served, promote
// the oldest waiter, then call the job's callback — is load-bearing:
// promoted work schedules its completion before anything the callback
// schedules.
func (s *Sim) fire(slot uint32) {
	c := &s.calls[slot]
	fn, arg, q := c.fn, c.arg, c.q
	*c = call{}
	s.free = append(s.free, slot)
	if q != nil {
		q.busy--
		q.JobsServed++
		if q.count > 0 {
			w := q.popWait()
			q.totalWaiting += s.now - w.queued
			q.start(w.service, w.fn, w.arg)
		}
	}
	if fn != nil {
		fn(arg)
	}
}

// next locates the earliest pending event across the heap top and the
// line heads: its line (nil for the heap) and time. ok is false when
// nothing is pending.
func (s *Sim) next() (line *DelayLine, at Time, ok bool) {
	var seq uint64
	if len(s.heap) > 0 {
		at, seq, ok = s.heap[0].at, s.heap[0].seq, true
	}
	for _, l := range s.lines {
		if l.count == 0 {
			continue
		}
		e := &l.ring[l.head]
		if !ok || e.at < at || (e.at == at && e.seq < seq) {
			line, at, seq, ok = l, e.at, e.seq, true
		}
	}
	return line, at, ok
}

// step advances the clock to at and fires the earliest event, which next
// found at the head of line (or of the heap when line is nil).
func (s *Sim) step(line *DelayLine, at Time) {
	s.now = at
	if line != nil {
		if fn, arg := line.pop(); fn != nil {
			fn(arg)
		}
		return
	}
	s.fire(s.popHeap())
}

// Run processes events until none remain, returning the final time.
func (s *Sim) Run() Time {
	for {
		line, at, ok := s.next()
		if !ok {
			return s.now
		}
		s.step(line, at)
	}
}

// RunUntil processes events with time <= t, then sets the clock to t.
func (s *Sim) RunUntil(t Time) {
	for {
		line, at, ok := s.next()
		if !ok || at > t {
			break
		}
		s.step(line, at)
	}
	if t > s.now {
		s.now = t
	}
}

// Pending reports the number of queued events, on the heap and on every
// DelayLine.
func (s *Sim) Pending() int {
	n := len(s.heap)
	for _, l := range s.lines {
		n += l.count
	}
	return n
}

// DelayLine is a FIFO of events that each fire a fixed delay after they
// are scheduled. Because the clock never moves backwards and sequence
// numbers only grow, successive entries have non-decreasing times and
// increasing sequence numbers: the ring is already sorted by (at, seq),
// so the engine only ever compares its head against the heap top.
type DelayLine struct {
	sim   *Sim
	delay Time

	// ring is a power-of-two ring buffer like Queue.waiting.
	ring  []lineEvent
	head  int
	count int
}

type lineEvent struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// NewDelayLine creates a line whose events fire delay (>= 0) after they
// are added.
func (s *Sim) NewDelayLine(delay Time) *DelayLine {
	if delay < 0 {
		panic("simclock: delay line needs a non-negative delay")
	}
	l := &DelayLine{sim: s, delay: delay}
	s.lines = append(s.lines, l)
	return l
}

// AddArg schedules fn(arg) (fn may be nil) at the line's delay from now,
// allocating nothing once the ring is warm. It consumes one sequence
// number, exactly like AfterArg with the same delay.
func (l *DelayLine) AddArg(fn func(any), arg any) {
	s := l.sim
	s.seq++
	if l.count == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.count)&(len(l.ring)-1)] = lineEvent{at: s.now + l.delay, seq: s.seq, fn: fn, arg: arg}
	l.count++
}

// pop removes the head event, clearing its ring slot so the line never
// pins a fired argument.
func (l *DelayLine) pop() (func(any), any) {
	e := &l.ring[l.head]
	fn, arg := e.fn, e.arg
	*e = lineEvent{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.count--
	return fn, arg
}

func (l *DelayLine) grow() {
	size := len(l.ring) * 2
	if size == 0 {
		size = 8
	}
	next := make([]lineEvent, size)
	for i := 0; i < l.count; i++ {
		next[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring = next
	l.head = 0
}

// Queue is a FIFO service center with a fixed number of parallel servers.
// Jobs are submitted with a service duration; each occupies one server for
// that duration, then its completion callback fires.
//
// Disks, NICs and per-OSD recovery/CPU slots are all modeled as Queues.
type Queue struct {
	sim     *Sim
	servers int
	busy    int

	// waiting is a power-of-two ring buffer: head indexes the oldest
	// entry, count the occupancy. Unlike the previous s = s[1:] slice it
	// neither leaks popped entries nor reallocates on steady-state churn.
	waiting []queuedJob
	head    int
	count   int

	// Stats.
	JobsServed   int
	BusyTime     Time // total server-occupied duration
	totalWaiting Time
}

type queuedJob struct {
	service Time
	fn      func(any)
	arg     any
	queued  Time
}

// NewQueue creates a service center with the given parallelism (>= 1).
func (s *Sim) NewQueue(servers int) *Queue {
	if servers < 1 {
		panic("simclock: queue needs at least one server")
	}
	return &Queue{sim: s, servers: servers}
}

// Submit enqueues a job with the given service time; done (may be nil)
// fires at completion.
func (q *Queue) Submit(service Time, done func()) {
	if done == nil {
		q.SubmitArg(service, nil, nil)
		return
	}
	q.SubmitArg(service, callThunk, done)
}

// SubmitArg enqueues a job whose completion fires fn(arg) (fn may be
// nil), allocating nothing. It is the hot-path form of Submit.
func (q *Queue) SubmitArg(service Time, fn func(any), arg any) {
	if service < 0 {
		service = 0
	}
	if q.busy < q.servers {
		q.start(service, fn, arg)
		return
	}
	q.pushWait(queuedJob{service: service, fn: fn, arg: arg, queued: q.sim.now})
}

// start occupies a server and schedules the job's completion, which
// Sim.fire handles.
func (q *Queue) start(service Time, fn func(any), arg any) {
	q.busy++
	q.BusyTime += service
	q.sim.schedule(q.sim.now+service, fn, arg, q)
}

func (q *Queue) pushWait(j queuedJob) {
	if q.count == len(q.waiting) {
		q.growWait()
	}
	q.waiting[(q.head+q.count)&(len(q.waiting)-1)] = j
	q.count++
}

func (q *Queue) popWait() queuedJob {
	j := q.waiting[q.head]
	q.waiting[q.head] = queuedJob{}
	q.head = (q.head + 1) & (len(q.waiting) - 1)
	q.count--
	return j
}

func (q *Queue) growWait() {
	size := len(q.waiting) * 2
	if size == 0 {
		size = 8
	}
	next := make([]queuedJob, size)
	for i := 0; i < q.count; i++ {
		next[i] = q.waiting[(q.head+i)&(len(q.waiting)-1)]
	}
	q.waiting = next
	q.head = 0
}

// InFlight reports currently executing jobs.
func (q *Queue) InFlight() int { return q.busy }

// QueueLen reports jobs waiting for a server.
func (q *Queue) QueueLen() int { return q.count }

// TotalWaiting is the cumulative time jobs spent queued before service.
func (q *Queue) TotalWaiting() Time { return q.totalWaiting }

// Semaphore is a counting semaphore with FIFO waiters, used for held
// resources like Ceph's per-OSD recovery/backfill reservations (unlike
// Queue, which models jobs with known service times).
type Semaphore struct {
	capacity int
	held     int

	// waiters is a ring buffer like Queue.waiting.
	waiters []func()
	head    int
	count   int
}

// NewSemaphore creates a semaphore with the given capacity (>= 1).
func (s *Sim) NewSemaphore(capacity int) *Semaphore {
	if capacity < 1 {
		panic("simclock: semaphore needs capacity >= 1")
	}
	return &Semaphore{capacity: capacity}
}

// Acquire grants a unit to fn, immediately if available, otherwise when a
// holder releases. Grants are FIFO.
func (sem *Semaphore) Acquire(fn func()) {
	if sem.held < sem.capacity {
		sem.held++
		fn()
		return
	}
	if sem.count == len(sem.waiters) {
		sem.growWaiters()
	}
	sem.waiters[(sem.head+sem.count)&(len(sem.waiters)-1)] = fn
	sem.count++
}

// Release returns a unit, granting the oldest waiter if any.
func (sem *Semaphore) Release() {
	if sem.held <= 0 {
		panic("simclock: Release without Acquire")
	}
	if sem.count > 0 {
		next := sem.waiters[sem.head]
		sem.waiters[sem.head] = nil
		sem.head = (sem.head + 1) & (len(sem.waiters) - 1)
		sem.count--
		next()
		return
	}
	sem.held--
}

func (sem *Semaphore) growWaiters() {
	size := len(sem.waiters) * 2
	if size == 0 {
		size = 8
	}
	next := make([]func(), size)
	for i := 0; i < sem.count; i++ {
		next[i] = sem.waiters[(sem.head+i)&(len(sem.waiters)-1)]
	}
	sem.waiters = next
	sem.head = 0
}

// Held reports currently granted units.
func (sem *Semaphore) Held() int { return sem.held }

// Waiting reports queued acquirers.
func (sem *Semaphore) Waiting() int { return sem.count }

// Join is a completion barrier: after n calls to Done, fn fires once.
type Join struct {
	remaining int
	fn        func()
}

// NewJoin creates a barrier over n completions. If n == 0 the callback
// fires immediately.
func NewJoin(n int, fn func()) *Join {
	j := &Join{remaining: n, fn: fn}
	if n == 0 && fn != nil {
		fn()
	}
	return j
}

// Done records one completion, firing the callback on the last.
func (j *Join) Done() {
	if j.remaining <= 0 {
		panic("simclock: Join.Done called too many times")
	}
	j.remaining--
	if j.remaining == 0 && j.fn != nil {
		j.fn()
	}
}
