package main

import (
	"runtime"
	"time"
)

// The reference load makes host-time figures comparable between runs.
// On a shared host the speed a core gives the process swings by tens of
// percent over minutes, and no median inside one run averages out a slow
// minute. So the untimed gaps between the timed work run slices of a
// fixed reference load, code of the benchmark's own that does not change
// with the program, and the run's host-time figures are scaled by the
// median CPU time of its slices: a figure reads what it would on the
// reference host, on which a slice takes refNominalMS of CPU time. CPU
// time rather than wall time, because wall time also counts waiting for
// a core, which short slices and long passes do not wait for alike.
//
// A slice runs refChunks chunks of refChunk events on one goroutine.
// Slices on two goroutines, one per core, ran about 35% slower in some
// runs than in others while the two-goroutine workloads did not, so one
// goroutine measures the host's speed more faithfully than two.
const (
	refObjects = 1 << 12
	refChunk   = 1 << 11
	refChunks  = 32
	refShare   = 20 // the slices take about 1/refShare of a run
	// refNominalMS is the CPU time of one slice on the reference host,
	// the 2-vCPU Xeon of baseline.json.
	refNominalMS = 14.0
)

type refObj struct {
	key  uint64
	left int
	peer *refObj
}

type refEvent struct {
	at  uint64
	obj *refObj
}

// refState is the reference load's state: refObjects live objects
// indexed by a map and a binary heap of events over them. It is built
// once and then runs without allocating, so that the slices set off no
// garbage collection, whose cost would depend on the program's heap.
type refState struct {
	x    uint64
	live map[uint64]*refObj
	q    []refEvent
}

func newRefState(seed uint64) *refState {
	s := &refState{
		x:    seed*0x9E3779B97F4A7C15 | 1,
		live: make(map[uint64]*refObj, refObjects),
		q:    make([]refEvent, 0, refObjects),
	}
	// One slab, so that the objects lie alike in every run.
	objs := make([]refObj, refObjects)
	for i := range objs {
		o := &objs[i]
		o.key, o.left = s.rnd(), int(s.rnd()%8)+1
		if i > 0 {
			o.peer = &objs[s.rnd()%uint64(i)]
		}
		s.live[o.key] = o
		s.push(refEvent{s.rnd() % 1024, o})
	}
	return s
}

func (s *refState) rnd() uint64 {
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	return s.x
}

func (s *refState) push(e refEvent) {
	q := append(s.q, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	s.q = q
}

func (s *refState) pop() refEvent {
	q := s.q
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].at < q[c].at {
			c = r
		}
		if q[i].at <= q[c].at {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	s.q = q
	return e
}

// run handles refChunks chunks of refChunk events. Each event hops to a
// peer, probes the map at a random key and, when its object is done,
// re-keys it. It is the mix of the simulator's hot paths (event queue,
// task tables) without being any of them.
func (s *refState) run() uint64 {
	var sum uint64
	for range refChunks {
		for range refChunk {
			e := s.pop()
			o := e.obj
			sum += o.key ^ e.at
			if o.peer != nil {
				sum += o.peer.key
			}
			if p, ok := s.live[s.rnd()]; ok {
				sum += p.key
			}
			if o.left--; o.left == 0 {
				delete(s.live, o.key)
				o.key, o.left = s.rnd(), int(s.rnd()%8)+1
				s.live[o.key] = o
			}
			s.push(refEvent{e.at + s.rnd()%1024, o})
		}
	}
	return sum
}

// refSink keeps the reference load's results live.
var refSink uint64

// refSeries is a run's reference slices: the process CPU time each
// took.
type refSeries struct {
	cpu   []float64 // milliseconds
	last  time.Time // when the last take ended
	state *refState
}

// take runs reference slices for a refShare-th of the time since the last
// take, and at least one, so that slices sample the whole run about
// evenly whether its units of work are short or long. It first finishes
// any garbage collection the work set off, which would otherwise run
// beside the slices and be charged to them.
func (s *refSeries) take() {
	runtime.GC()
	var budget time.Duration
	if !s.last.IsZero() {
		budget = time.Since(s.last) / refShare
	}
	for start := time.Now(); ; {
		s.slice()
		if time.Since(start) >= budget {
			break
		}
	}
	s.last = time.Now()
}

// slice runs one reference slice.
func (s *refSeries) slice() {
	if s.state == nil {
		s.state = newRefState(1)
	}
	cpu0 := processCPU()
	refSink += s.state.run()
	s.cpu = append(s.cpu, float64(processCPU()-cpu0)/float64(time.Millisecond))
}

// scale is the factor that turns the run's host times into
// reference-host times: the reference load's CPU time on the reference
// host over its median CPU time in this run. Without slices it is 1.
func (s *refSeries) scale() float64 {
	if s == nil || len(s.cpu) == 0 {
		return 1
	}
	return refNominalMS / median(s.cpu)
}
