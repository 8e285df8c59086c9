package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// windowsPerPhase is how many equal windows a timed phase is split
// into. The end-to-end metrics are medians over the windows, so a
// burst of interference from outside the process moves one window,
// not the run's figure.
const windowsPerPhase = 10

// windowReservoir bounds each window's latency sample per recorder.
const windowReservoir = 1 << 13

// loopResult aggregates one load-generation phase. Latency and lag
// cover the timed window only; ok and failed count every access the
// phase issued, warm-up included, so a failure anywhere is seen.
type loopResult struct {
	lat         *recorder   // access latency over the timed phase (open loop: from the due instant)
	wins        []*recorder // the same, per window of start (open loop: due) instants
	done        []int64     // successful completions per window of completion instants
	start       time.Time   // the timed phase's start
	window      time.Duration
	lag         *recorder // generator lateness
	timed       int64     // accesses completed in the timed phase
	ok, failed  int64
	firstErr    error
	elapsed     time.Duration // the span the timed completions cover
	inflightMax int64
}

func newLoopResult(seed uint64, dur time.Duration) *loopResult {
	return &loopResult{
		lat:    newRecorder(seed),
		wins:   newWindows(seed + 7),
		done:   make([]int64, windowsPerPhase),
		window: dur / windowsPerPhase,
		lag:    newRecorder(seed + 1),
	}
}

func newWindows(seed uint64) []*recorder {
	w := make([]*recorder, windowsPerPhase)
	for i := range w {
		w[i] = newRecorderCap(seed+uint64(i)*13, windowReservoir)
	}
	return w
}

// windowIndex places t (relative to the timed phase start) in its
// window, or returns -1 outside the phase.
func windowIndex(since, window time.Duration) int {
	i := int(since / window)
	if since < 0 || i >= windowsPerPhase {
		return -1
	}
	return i
}

func (l *loopResult) merge(lat, lag *recorder, wins []*recorder, done []int64) {
	l.lat.merge(lat)
	l.lag.merge(lag)
	for i, w := range wins {
		l.wins[i].merge(w)
		l.done[i] += done[i]
	}
}

// accessesPerS is timed completions per wall second over the phase.
func (l *loopResult) accessesPerS() float64 { return ratio(float64(l.timed), l.elapsed.Seconds()) }

// windowMedian is the median over windows of f(window).
func (l *loopResult) windowMedian(f func(w *recorder) float64) float64 {
	xs := make([]float64, 0, len(l.wins))
	for _, w := range l.wins {
		if w.n > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

// windowRates are each window's delivered rate: the successful
// accesses that completed inside it, per second.
func (l *loopResult) windowRates() []float64 {
	out := make([]float64, len(l.done))
	for i, n := range l.done {
		out[i] = float64(n) / l.window.Seconds()
	}
	return out
}

// callerFunc performs one access for caller, with t0 its start instant.
type callerFunc func(caller int, seq uint64, t0 time.Time) error

// closedLoop runs callers goroutines that each issue their next access
// only after the previous one completes: warm-up first, then a timed
// phase of dur. Lag is the gap between one access's completion and
// the next one's start (the generator's own overhead).
func closedLoop(callers int, warm, dur time.Duration, seed uint64, do callerFunc) *loopResult {
	start := time.Now()
	timedStart := start.Add(warm)
	end := timedStart.Add(dur)
	res := newLoopResult(seed, dur)
	res.start = timedStart
	var mu sync.Mutex
	var wg sync.WaitGroup
	var inflight, inflightMax atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cseed := seed + uint64(c+1)*1000
			lat, lag, wins := newRecorder(cseed), newRecorder(cseed+1), newWindows(cseed+2)
			done := make([]int64, windowsPerPhase)
			var ok, failed, timed int64
			var firstErr error
			var last time.Time
			prevEnd := time.Now()
			for seq := uint64(0); ; seq++ {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				raise(&inflightMax, inflight.Add(1))
				err := do(c, seq, t0)
				inflight.Add(-1)
				t1 := time.Now()
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					ok++
					if i := windowIndex(t1.Sub(timedStart), res.window); i >= 0 {
						done[i]++
					}
				}
				if !t0.Before(timedStart) && err == nil {
					timed++
					lat.add(t1.Sub(t0))
					lag.add(t0.Sub(prevEnd))
					if i := windowIndex(t0.Sub(timedStart), res.window); i >= 0 {
						wins[i].add(t1.Sub(t0))
					}
					last = t1
				}
				prevEnd = t1
			}
			mu.Lock()
			defer mu.Unlock()
			res.merge(lat, lag, wins, done)
			res.ok += ok
			res.failed += failed
			res.timed += timed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			if d := last.Sub(timedStart); d > res.elapsed {
				res.elapsed = d
			}
		}(c)
	}
	wg.Wait()
	res.inflightMax = inflightMax.Load()
	return res
}

// arrival is one scheduled open-loop access.
type arrival struct {
	at        time.Duration // offset from the phase start
	serviceUs uint32
}

// openLoop issues each arrival at its due instant on its own goroutine,
// regardless of how many are still in flight, and times each access
// from its due instant. Arrivals due before warm are not timed; the
// timed phase runs from warm to the last arrival. Its elapsed time runs
// from the first timed completion to the last, so the rate it gives is
// the delivered one: equal to the offered rate while the system keeps
// up, lower once completions trail their arrivals.
func openLoop(sched []arrival, warm time.Duration, seed uint64, do func(a arrival, t0 time.Time) error) *loopResult {
	dur := time.Millisecond
	if len(sched) > 0 && sched[len(sched)-1].at > warm {
		dur = sched[len(sched)-1].at - warm + time.Nanosecond
	}
	start := time.Now().Add(time.Millisecond)
	timedStart := start.Add(warm)
	res := newLoopResult(seed, dur)
	res.start = timedStart
	var mu sync.Mutex
	var wg sync.WaitGroup
	var inflight, inflightMax atomic.Int64
	var first, last time.Time
	for _, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		win := windowIndex(due.Sub(timedStart), res.window)
		timed := !due.Before(timedStart)
		if timed {
			res.lag.add(t0.Sub(due))
		}
		raise(&inflightMax, inflight.Add(1))
		wg.Add(1)
		go func(a arrival, due, t0 time.Time) {
			defer wg.Done()
			err := do(a, t0)
			t1 := time.Now()
			inflight.Add(-1)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = err
				}
				return
			}
			res.ok++
			if i := windowIndex(t1.Sub(timedStart), res.window); i >= 0 {
				res.done[i]++
			}
			if !timed {
				return
			}
			res.timed++
			res.lat.add(t1.Sub(due))
			if win >= 0 {
				res.wins[win].add(t1.Sub(due))
			}
			if first.IsZero() || t1.Before(first) {
				first = t1
			}
			if t1.After(last) {
				last = t1
			}
		}(a, due, t0)
	}
	wg.Wait()
	res.elapsed = last.Sub(first)
	res.inflightMax = inflightMax.Load()
	return res
}

// raise lifts max to at least n.
func raise(max *atomic.Int64, n int64) {
	for {
		m := max.Load()
		if n <= m || max.CompareAndSwap(m, n) {
			return
		}
	}
}
