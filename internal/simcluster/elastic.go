// elastic.go is the simulator half of the elastic-membership seam
// (internal/membership): Join/Drain/Leave events replayed on the
// simulated clock, a growable server pool that preserves the zero-
// allocation dispatch path (every capacity is reserved up front from
// Config.maxPool), and the closed-loop autoscaler sampling the pool on
// its policy interval. Fixed-pool runs never construct a memberState,
// so the paper model's RNG-draw and event sequence stays bit-identical
// — the same inert fast-path contract the faults seam established.

package simcluster

import (
	"sort"
	"time"

	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/sim"
)

// memberState tracks the routable pool of an elastic run. The members
// slice is kept sorted by id so policy draws are deterministic and
// round-robin walks the pool in a stable order; churn events mutate it
// in O(pool), which is fine — churn is orders of magnitude rarer than
// dispatch.
type memberState struct {
	routable []bool // id currently receives new work
	draining []bool // id withdrawn from routing, still serving its queue
	retiring []bool // draining id the autoscaler will retire once idle
	left     []bool // id retired from the run
	members  []int  // sorted routable ids

	joins, drains, leaves int64
	peakPool              int

	mm *obs.MembershipMetrics

	// Autoscaler loop (nil/zero when only a schedule drives churn).
	as         *membership.Autoscaler
	asInterval sim.Duration
	asTick     func() // prebuilt so the rescheduling loop allocates nothing
}

// insert adds id to the sorted member list.
func (m *memberState) insert(id int) {
	i := sort.SearchInts(m.members, id)
	m.members = append(m.members, 0)
	copy(m.members[i+1:], m.members[i:])
	m.members[i] = id
}

// removeMember deletes id from the sorted member list.
func (m *memberState) removeMember(id int) {
	i := sort.SearchInts(m.members, id)
	if i < len(m.members) && m.members[i] == id {
		m.members = append(m.members[:i], m.members[i+1:]...)
	}
}

// speedFor returns server id's work rate: its SpeedFactors entry when
// covered, 1.0 otherwise (ids an elastic run grows past the factors
// slice run at base speed).
func (r *runner) speedFor(id int) float64 {
	if r.cfg.SpeedFactors != nil && id < len(r.cfg.SpeedFactors) {
		return r.cfg.SpeedFactors[id]
	}
	return 1.0
}

// setupElastic builds the membership state, schedules the membership
// events on the simulated clock, and starts the autoscaler loop. Called
// from newRunner only when Config.elastic().
func (r *runner) setupElastic(maxPool int) {
	cfg := &r.cfg
	ms := &memberState{
		routable: make([]bool, maxPool),
		draining: make([]bool, maxPool),
		retiring: make([]bool, maxPool),
		left:     make([]bool, maxPool),
		members:  make([]int, cfg.Servers, maxPool),
		peakPool: cfg.Servers,
		mm:       obs.NewMembershipMetrics(r.reg),
	}
	for i := 0; i < cfg.Servers; i++ {
		ms.routable[i] = true
		ms.members[i] = i
	}
	ms.mm.Pool.Set(int64(cfg.Servers))
	r.ms = ms

	if cfg.Membership.Active() {
		for _, ev := range cfg.Membership.Sorted() {
			ev := ev
			r.eng.At(sim.Time(sim.FromSeconds(ev.At.Seconds())), func() {
				r.applyMembership(ev)
			})
		}
	}

	if cfg.Autoscaler.Active() {
		ms.as = membership.NewAutoscaler(cfg.Autoscaler)
		ms.asInterval = sim.FromSeconds(ms.as.Config().Interval.Seconds())
		ms.asTick = func() { r.autoscaleTick() }
		r.eng.After(ms.asInterval, ms.asTick)
	}
}

// applyMembership executes one schedule event.
func (r *runner) applyMembership(ev membership.Event) {
	switch ev.Kind {
	case membership.Join:
		r.join(ev.Node)
	case membership.Drain:
		r.drain(ev.Node)
	case membership.Leave:
		r.leave(ev.Node)
	}
}

// growTo extends the server slice (and every policy index) to hold ids
// below n. New servers are inert placeholders until join attaches them.
// n never exceeds maxPool, so growth stays within the capacity reserved
// at construction — no reallocation, and no pointer into r.srv moves.
func (r *runner) growTo(n int) {
	for len(r.srv) < n {
		id := len(r.srv)
		r.srv = append(r.srv, serverState{speed: r.speedFor(id)})
		if r.cfg.RecordQueueSeries {
			r.srv[id].series = &QSeries{}
		}
	}
	if r.commit != nil {
		r.commit.Extend(n)
	}
	if r.local != nil {
		for _, li := range r.local {
			li.Extend(n)
		}
	}
}

// join makes id routable: a brand-new server grows the pool, a drained
// or retired one comes back with whatever queue it still holds. Returns
// whether the pool changed.
func (r *runner) join(id int) bool {
	ms := r.ms
	if id >= len(ms.routable) || ms.routable[id] {
		return false
	}
	r.growTo(id + 1)
	ms.routable[id] = true
	ms.draining[id] = false
	ms.retiring[id] = false
	ms.left[id] = false
	ms.insert(id)
	ms.joins++
	ms.mm.Joins.Inc()
	ms.mm.Pool.Set(int64(len(ms.members)))
	if len(ms.members) > ms.peakPool {
		ms.peakPool = len(ms.members)
	}
	// Attach to the policy indexes with the load it still carries (zero
	// for a fresh server; outstanding work for a rejoining one) unless
	// it is down or paused.
	r.reindex(id)
	r.record(id)
	r.emit("server.join", r.serverActor, id, int64(len(ms.members)), 0)
	return true
}

// drain withdraws id from routing while it keeps serving its queue. The
// last routable member never drains — an elastic run must always have
// somewhere to send work. Returns whether the pool changed.
func (r *runner) drain(id int) bool {
	ms := r.ms
	if id >= len(ms.routable) || !ms.routable[id] {
		return false
	}
	if len(ms.members) <= 1 {
		return false
	}
	ms.routable[id] = false
	ms.draining[id] = true
	ms.removeMember(id)
	ms.drains++
	ms.mm.Drains.Inc()
	ms.mm.Pool.Set(int64(len(ms.members)))
	r.reindex(id)
	r.emit("server.drain", r.serverActor, id, int64(len(ms.members)), 0)
	return true
}

// leave retires a drained id. Queued work has already completed (or
// completes before the run can end — the engine drains every in-flight
// access), so leave is bookkeeping: the id stops being rejoinable by
// the autoscaler's first-fit scan until a schedule joins it again.
func (r *runner) leave(id int) {
	ms := r.ms
	if id >= len(ms.routable) || ms.left[id] {
		return
	}
	if ms.routable[id] && !r.drain(id) {
		return // last routable member: refuse to retire it
	}
	ms.draining[id] = false
	ms.retiring[id] = false
	ms.left[id] = true
	ms.leaves++
	ms.mm.Leaves.Inc()
	r.emit("server.leave", r.serverActor, id, int64(len(ms.members)), 0)
}

// autoscaleTick is one autoscaler sample on the simulated clock: read
// the routable pool's mean outstanding load, ask the policy for a
// delta, apply it as joins (first-fit over non-left ids, then retired
// ones) or drains (highest id first — joined last, first out), and
// reschedule. The loop rides pooled engine events with the prebuilt
// callback, so steady-state sampling allocates nothing.
func (r *runner) autoscaleTick() {
	ms := r.ms
	pool := len(ms.members)
	outstanding := 0
	for _, id := range ms.members {
		outstanding += r.srv[id].active
	}
	load := float64(outstanding) / float64(pool)
	// sim.Time counts nanoseconds from the start of the run, so it
	// converts directly to the autoscaler's elapsed-time argument.
	delta := ms.as.Evaluate(time.Duration(r.eng.Now()), pool, load)
	switch {
	case delta > 0:
		added := 0
		for id := 0; id < len(ms.routable) && added < delta; id++ {
			if !ms.routable[id] && !ms.left[id] && r.join(id) {
				added++
			}
		}
		for id := 0; id < len(ms.routable) && added < delta; id++ {
			if !ms.routable[id] && r.join(id) {
				added++
			}
		}
		if added > 0 {
			ms.mm.ScaleUps.Inc()
		}
	case delta < 0:
		removed := 0
		for removed < -delta && len(ms.members) > 1 {
			id := ms.members[len(ms.members)-1]
			if !r.drain(id) {
				break
			}
			removed++
			ms.retiring[id] = true
			if r.srv[id].active == 0 {
				r.leave(id) // already idle: retire immediately
			}
		}
		if removed > 0 {
			ms.mm.ScaleDowns.Inc()
		}
	}
	r.eng.After(ms.asInterval, ms.asTick)
}
