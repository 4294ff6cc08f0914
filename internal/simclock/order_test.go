package simclock

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"
)

// Ordering harness: random event programs run once on the engine and once
// on refSim, a naive reference that keeps every pending event in one
// slice and, each step, sorts it by (at, seq) and fires the head. The
// engine's heap, slab, Queue completions and DelayLines must reproduce
// the reference's fire trace exactly — every (time, id) pair in order —
// so any divergence is an engine bug, never tolerance.

// engine is the scheduling surface a test program drives.
type engine interface {
	Now() Time
	AfterArg(d Time, fn func(any), arg any)
	// LineArg schedules on fixed-delay line i (see lineDelays).
	LineArg(i int, fn func(any), arg any)
	// SubmitArg submits to queue i (see queueServers).
	SubmitArg(i int, service Time, fn func(any), arg any)
	Run() Time
}

// The fixed shape every program runs on: two delay lines (one of them
// zero-delay, so line events collide with same-instant heap events) and
// two queues.
var (
	lineDelays   = []Time{0, 700 * time.Nanosecond}
	queueServers = []int{1, 2}
)

// simEngine drives the real engine.
type simEngine struct {
	*Sim
	lines  []*DelayLine
	queues []*Queue
}

func newSimEngine() *simEngine {
	e := &simEngine{Sim: New()}
	for _, d := range lineDelays {
		e.lines = append(e.lines, e.NewDelayLine(d))
	}
	for _, n := range queueServers {
		e.queues = append(e.queues, e.NewQueue(n))
	}
	return e
}

func (e *simEngine) LineArg(i int, fn func(any), arg any) { e.lines[i].AddArg(fn, arg) }

func (e *simEngine) SubmitArg(i int, service Time, fn func(any), arg any) {
	e.queues[i].SubmitArg(service, fn, arg)
}

// refSim is the reference engine. It shares no code with Sim: one
// pending slice, a sort per step, and a Queue model written out longhand
// (free the server, promote the oldest waiter, then run the callback).
type refSim struct {
	now     Time
	seq     uint64
	pending []refEvent
	queues  []*refQueue
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
	q   *refQueue
}

type refQueue struct {
	servers, busy int
	waiting       []refJob
}

type refJob struct {
	service Time
	fn      func(any)
	arg     any
}

func newRefSim() *refSim {
	r := &refSim{}
	for _, n := range queueServers {
		r.queues = append(r.queues, &refQueue{servers: n})
	}
	return r
}

func (r *refSim) Now() Time { return r.now }

func (r *refSim) add(at Time, fn func(any), arg any, q *refQueue) {
	r.seq++
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, fn: fn, arg: arg, q: q})
}

func (r *refSim) AfterArg(d Time, fn func(any), arg any) { r.add(r.now+max(d, 0), fn, arg, nil) }

func (r *refSim) LineArg(i int, fn func(any), arg any) { r.add(r.now+lineDelays[i], fn, arg, nil) }

func (r *refSim) SubmitArg(i int, service Time, fn func(any), arg any) {
	q := r.queues[i]
	if q.busy < q.servers {
		q.busy++
		r.add(r.now+max(service, 0), fn, arg, q)
		return
	}
	q.waiting = append(q.waiting, refJob{service: max(service, 0), fn: fn, arg: arg})
}

func (r *refSim) Run() Time {
	for len(r.pending) > 0 {
		slices.SortFunc(r.pending, func(a, b refEvent) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		e := r.pending[0]
		r.pending = r.pending[1:]
		r.now = e.at
		if q := e.q; q != nil {
			q.busy--
			if len(q.waiting) > 0 {
				w := q.waiting[0]
				q.waiting = q.waiting[1:]
				q.busy++
				r.add(r.now+w.service, w.fn, w.arg, q)
			}
		}
		if e.fn != nil {
			e.fn(e.arg)
		}
	}
	return r.now
}

// mix is splitmix64: the per-event identity hash that derives each
// event's fan-out and delays, so a program's shape depends only on the
// seed and the event's position in the spawn tree.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type traceEntry struct {
	at Time
	id uint64
}

// tracer is one program execution: the trace in firing order plus the
// spawn budget bounding the run. Budget consumption order equals
// execution order; if the engines diverge, the traces already differ, so
// the shared counter never masks a failure.
type tracer struct {
	e      engine
	sem    *Semaphore
	trace  []traceEntry
	budget int
}

func (tr *tracer) record(id uint64) {
	tr.trace = append(tr.trace, traceEntry{tr.e.Now(), id})
}

type node struct {
	tr *tracer
	id uint64
}

func runNode(a any) {
	n := a.(*node)
	tr := n.tr
	tr.record(n.id)
	h := mix(n.id)
	kids := int(h & 3) // 0..3 children
	for i := 0; i < kids && tr.budget > 0; i++ {
		tr.budget--
		h = mix(h + uint64(i) + 1)
		kid := &node{tr: tr, id: h}
		if h&0x30 == 0 {
			// A network-style delivery on a fixed-delay line.
			tr.e.LineArg(int(h>>6)&1, runNode, kid)
			continue
		}
		// Delay on a coarse 0..199µs grid, so children (zero-delay ones
		// included) collide with pending events.
		tr.e.AfterArg(Time(h%200)*time.Microsecond, runNode, kid)
	}
	switch {
	case h&0xf == 0 && tr.budget > 0:
		// Ride a Queue: service time from the hash; the completion runs
		// the node, so whatever it spawns races the promoted waiter's
		// completion for sequence numbers.
		tr.budget--
		tr.e.SubmitArg(int(h>>8)&1, Time(h%50)*time.Microsecond, runNode, &node{tr: tr, id: h ^ 0xabcdef})
	case h&0xf == 1 && tr.budget > 0:
		tr.budget--
		id := h ^ 0x123456
		tr.sem.Acquire(func() {
			tr.record(id)
			tr.e.AfterArg(Time(h%30)*time.Microsecond, semDone, tr)
		})
	}
}

func semDone(a any) {
	a.(*tracer).sem.Release()
}

// runProgram executes the seeded program on e.
func runProgram(e engine, seed uint64) ([]traceEntry, Time) {
	tr := &tracer{e: e, sem: &Semaphore{capacity: 2}, budget: 1500}
	r := seed
	for i := 0; i < 16; i++ {
		r = mix(r + uint64(i))
		at := Time(r % uint64(2*time.Millisecond))
		e.AfterArg(at, runNode, &node{tr: tr, id: mix(r)})
	}
	end := e.Run()
	return tr.trace, end
}

// checkTrace fails t at the first event where got leaves want.
func checkTrace(t *testing.T, label string, got, want []traceEntry) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("%s: trace diverged at event %d/%d (reference %+v, engine %+v)",
		label, i, len(want), traceAt(want, i), traceAt(got, i))
}

func traceAt(tr []traceEntry, i int) any {
	if i < len(tr) {
		return tr[i]
	}
	return "<end>"
}

// TestWindowMergeProperty is the merge property test: for random
// programs mixing heap events, both delay lines, both queues and a
// semaphore, the engine's merge of heap top and line heads fires in the
// reference's global (at, seq) order.
func TestWindowMergeProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		want, wantEnd := runProgram(newRefSim(), seed)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty reference trace", seed)
		}
		got, gotEnd := runProgram(newSimEngine(), seed)
		if gotEnd != wantEnd {
			t.Errorf("seed %d: end %v, reference %v", seed, gotEnd, wantEnd)
		}
		checkTrace(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

// queueTag marks trace ids recorded by Queue completions in the fuzz
// programs below.
const queueTag = 1 << 40

// FuzzSimclockFIFO pins the same-timestamp tie-break. Each input byte
// schedules one root on a tiny timestamp grid (collisions abound) through
// the heap, a delay line or a queue, chosen by bits 4-5. High-bit bytes
// also spawn a zero-delay heap child and a zero-delay line child at fire
// time, which must fire after every same-instant event already
// scheduled — for a queue root, after the completion of the waiter its
// server promotes. The trace must equal the reference's, and non-queue events
// of one instant must fire in scheduling order.
func FuzzSimclockFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 7, 3, 3, 0x83, 0x81, 0xff, 5})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0})
	f.Add([]byte{0xb0, 0xb0, 0xb0, 0x30}) // zero-service queue roots
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		run := func(e engine) []traceEntry {
			type rootArg struct {
				b  byte
				id uint64
			}
			var trace []traceEntry
			var nextID uint64
			newID := func() uint64 { nextID++; return nextID - 1 }
			record := func(a any) { trace = append(trace, traceEntry{e.Now(), a.(uint64)}) }
			root := func(a any) {
				r := a.(*rootArg)
				record(r.id)
				if r.b&0x80 != 0 {
					e.AfterArg(0, record, newID())
					e.LineArg(0, record, newID())
				}
			}
			for _, b := range data {
				at := Time(b&0x7) * 100 * time.Nanosecond
				switch b >> 4 & 3 {
				case 0, 1:
					e.AfterArg(at, root, &rootArg{b, newID()})
				case 2:
					e.LineArg(1, root, &rootArg{b, newID()})
				case 3:
					e.SubmitArg(int(b&1), at, root, &rootArg{b, newID() | queueTag})
				}
			}
			e.Run()
			return trace
		}

		want := run(newRefSim())
		got := run(newSimEngine())
		checkTrace(t, "engine vs reference", got, want)
		byAt := map[Time]uint64{}
		for _, e := range got {
			if e.id&queueTag != 0 {
				continue // completions take their seq when service starts
			}
			if last, ok := byAt[e.at]; ok && e.id <= last {
				t.Fatalf("same-instant FIFO violated at %v: id %d after %d (trace %v)",
					e.at, e.id, last, got)
			}
			byAt[e.at] = e.id
		}
	})
}

// FuzzEngineWindowMerge feeds arbitrary byte programs through the engine
// and the reference: each byte schedules a root on a coarse timestamp
// grid with optional Queue traffic, delayed children and line
// deliveries, and the traces must match.
func FuzzEngineWindowMerge(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3, 0x24, 0x65, 0xa6, 0xe7})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x01, 0x02, 0x03})
	f.Add([]byte{0x40, 0x00, 0x40, 0x00, 0x40}) // zero-service queue 0
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			t.Skip()
		}
		run := func(e engine) ([]traceEntry, Time) {
			var trace []traceEntry
			record := func(a any) {
				trace = append(trace, traceEntry{e.Now(), a.(uint64)})
			}
			for i, b := range data {
				b := b
				id := uint64(i)
				service := Time(b&0x7) * 100 * time.Nanosecond
				// A completion's follow-up lands where a promoted
				// waiter's completion often does.
				served := func(a any) {
					record(a)
					e.AfterArg(service, record, id|1<<35)
				}
				e.AfterArg(Time(b&0x3f)*100*time.Nanosecond, func(any) {
					trace = append(trace, traceEntry{e.Now(), id})
					if b&0x40 != 0 {
						e.SubmitArg(i&1, service, served, id|1<<32)
					}
					if b&0x80 != 0 {
						e.AfterArg(Time(b&0xf)*50*time.Nanosecond, record, id|1<<33)
					}
					if b&0xc0 == 0xc0 {
						e.LineArg(int(b>>3)&1, record, id|1<<34)
					}
				}, nil)
			}
			end := e.Run()
			return trace, end
		}
		want, wantEnd := run(newRefSim())
		got, gotEnd := run(newSimEngine())
		if gotEnd != wantEnd {
			t.Fatalf("end %v, reference %v", gotEnd, wantEnd)
		}
		checkTrace(t, "engine vs reference", got, want)
	})
}
