// Package simcluster wires the load-balancing policies of internal/core
// into the discrete-event engine of internal/sim, reproducing the
// paper's simulation model (§2): each server has a non-preemptive
// processing unit and a FIFO service queue; the network latency of
// sending a request and receiving a response is half a measured TCP
// round trip; load inquiries cost a measured UDP round trip; broadcast
// intervals are jittered uniformly over [0.5, 1.5] x mean.
//
// It powers Figure 2 (load-index inaccuracy), Figure 3 (broadcast
// frequency), Figure 4 (poll size), and the ablations A1-A3.
//
// The hot path is built to scale to O(10k) servers and O(10M) accesses
// (DESIGN.md §10): server state lives in one value slice, in-flight
// accesses are pooled records with prebuilt callbacks (zero steady-
// state allocation on the dispatch path), arrivals are scheduled
// lazily against a reserved sequence band (the pending-event heap
// holds the in-flight population, not the whole trace), and the IDEAL
// and least-connections decisions come from an indexed min-heap
// (core.LoadIndex) instead of an O(n) scan.
package simcluster

import (
	"fmt"
	"strconv"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/sim"
	"finelb/internal/stats"
	"finelb/internal/workload"
)

// Paper-measured network constants (DESIGN.md §4).
const (
	// DefaultServiceNetDelay is the one-way request or response latency:
	// half of the 516 us that the paper charges for a full
	// send-request/receive-response exchange.
	DefaultServiceNetDelay = 258 * sim.Microsecond
	// DefaultPollRTT is the measured UDP load-inquiry round trip.
	DefaultPollRTT = 290 * sim.Microsecond
	// DefaultBroadcastDelay is the propagation delay of one load
	// broadcast (half the UDP round trip).
	DefaultBroadcastDelay = 145 * sim.Microsecond
)

// DefaultPollTimeout caps how long a client waits for poll answers when
// the policy sets no (or a longer) discard threshold, mirroring the
// prototype client's poll deadline. The cap applies uniformly to
// healthy and faulted runs (DESIGN.md §5); in the healthy model every
// answer arrives within its ~290 us round trip, so it only binds when
// fault injection or extreme PollJitter delays answers.
const DefaultPollTimeout = sim.Duration(sim.Second)

// Config describes one simulated run.
type Config struct {
	Servers  int
	Clients  int               // decision-making client nodes (default 6)
	Workload workload.Workload // arrival dist must already be scaled (ScaledTo)
	Policy   core.Policy

	// SpeedFactors, when non-nil, makes the cluster heterogeneous:
	// server i executes work at SpeedFactors[i] times the base rate
	// (a demand of d seconds takes d/SpeedFactors[i]). Must have length
	// Servers; nil means a homogeneous cluster, as in the paper.
	SpeedFactors []float64

	// Network model; zero values take the paper-measured defaults.
	ServiceNetDelay sim.Duration
	PollRTT         sim.Duration
	BroadcastDelay  sim.Duration

	// PollJitter, when non-nil, adds a sampled extra delay (seconds) to
	// each poll's round trip. The paper's simulation uses constant poll
	// cost (nil); the jitter exists to exercise the discard logic in
	// simulation tests.
	PollJitter stats.Dist

	// Faults, when non-nil, injects the schedule into the run: node
	// events play out on the simulated clock and link faults apply to
	// load inquiries. Fault handling (quarantine, backoff, bounded
	// retries) mirrors the prototype client's, with the shared defaults
	// from internal/faults. Unsupported with the Broadcast policy.
	Faults *faults.Schedule

	// Membership, when active, makes the server set elastic: Join/
	// Drain/Leave events play out on the simulated clock, growing the
	// pool past Servers (up to the schedule's MaxNode) or gracefully
	// shrinking it. An inert schedule takes the fixed-pool fast path
	// bit for bit. Unsupported with the Broadcast policy. It composes
	// with Faults: a fault event may name any id the pool can reach.
	Membership *membership.Schedule
	// Autoscaler, when active, samples the routable pool's load every
	// policy interval on the simulated clock and applies the resulting
	// Join/Drain events itself — the closed-loop counterpart of a
	// precomputed Membership schedule. Both may be set; the schedule
	// seeds churn and the autoscaler reacts on top.
	Autoscaler *membership.AutoscalerConfig

	// Accesses is the number of service accesses to generate (default 100000).
	Accesses int
	// WarmupFrac is the fraction of initial accesses excluded from
	// statistics (default 0.1).
	WarmupFrac float64
	// Seed makes the run reproducible.
	Seed uint64
	// RecordQueueSeries retains each server's queue-length time series
	// (Figure 2 needs it; it costs memory on long runs).
	RecordQueueSeries bool

	// Metrics, when non-nil, is the registry the run records the shared
	// obs.RunMetrics catalog into; nil records into a private registry.
	// Either way Result.Metrics carries the end-of-run snapshot.
	// Instrumentation schedules no events and draws no randomness, so it
	// cannot perturb a run (the golden-seed harness pins this).
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured protocol events
	// (dispatches, discards, quarantines, server faults) on the
	// simulated clock. See obs.Event for the schema.
	Trace *obs.Trace
}

func (c Config) withDefaults() (Config, error) {
	if c.Servers <= 0 {
		return c, fmt.Errorf("simcluster: Servers = %d", c.Servers)
	}
	if c.Clients == 0 {
		c.Clients = 6
	}
	if c.Clients < 0 {
		return c, fmt.Errorf("simcluster: Clients = %d", c.Clients)
	}
	if err := c.Policy.Validate(); err != nil {
		return c, err
	}
	if c.ServiceNetDelay == 0 {
		c.ServiceNetDelay = DefaultServiceNetDelay
	}
	if c.PollRTT == 0 {
		c.PollRTT = DefaultPollRTT
	}
	if c.BroadcastDelay == 0 {
		c.BroadcastDelay = DefaultBroadcastDelay
	}
	if c.Accesses == 0 {
		c.Accesses = 100000
	}
	if c.Accesses < 0 {
		return c, fmt.Errorf("simcluster: Accesses = %d", c.Accesses)
	}
	if c.WarmupFrac == 0 {
		c.WarmupFrac = 0.1
	}
	if c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		return c, fmt.Errorf("simcluster: WarmupFrac = %v", c.WarmupFrac)
	}
	if c.Workload.Arrival == nil || c.Workload.Service == nil {
		return c, fmt.Errorf("simcluster: incomplete workload")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return c, err
		}
		if c.Policy.Kind == core.Broadcast {
			// Broadcast agents run on Every() timers that never drain, so
			// a run with lost accesses would never terminate.
			return c, fmt.Errorf("simcluster: Faults is unsupported with the Broadcast policy")
		}
	}
	if c.Membership != nil || c.Autoscaler != nil {
		if err := c.Membership.Validate(); err != nil {
			return c, err
		}
		if err := c.Autoscaler.Validate(); err != nil {
			return c, err
		}
	}
	if c.elastic() {
		if c.Policy.Kind == core.Broadcast {
			// Broadcast tables are sized to the fixed pool and its
			// agents run on Every() timers; elastic pools are a polling/
			// index-policy feature.
			return c, fmt.Errorf("simcluster: Membership is unsupported with the Broadcast policy")
		}
		if c.Autoscaler.Active() && c.Autoscaler.Max < c.Servers {
			return c, fmt.Errorf("simcluster: autoscaler max pool %d below initial %d servers", c.Autoscaler.Max, c.Servers)
		}
	}
	if c.SpeedFactors != nil {
		// An elastic run may carry extra factors for joinable ids past
		// the initial pool; ids beyond the slice run at speed 1.
		if len(c.SpeedFactors) != c.Servers && !(c.elastic() && len(c.SpeedFactors) > c.Servers) {
			return c, fmt.Errorf("simcluster: %d speed factors for %d servers", len(c.SpeedFactors), c.Servers)
		}
		for i, f := range c.SpeedFactors {
			if f <= 0 {
				return c, fmt.Errorf("simcluster: speed factor %d = %v", i, f)
			}
		}
	}
	return c, nil
}

// elastic reports whether the run's server set can change mid-run.
func (c Config) elastic() bool {
	return c.Membership.Active() || c.Autoscaler.Active()
}

// maxPool returns the largest server id space the run can reach: the
// initial pool, grown by whatever the membership schedule or the
// autoscaler bound can add. Fixed-pool runs return Servers, so every
// capacity sized from maxPool is exactly what it was before the
// elastic seam existed.
func (c Config) maxPool() int {
	mp := c.Servers
	if n := c.Membership.MaxNode() + 1; n > mp {
		mp = n
	}
	if c.Autoscaler.Active() && c.Autoscaler.Max > mp {
		mp = c.Autoscaler.Max
	}
	return mp
}

// MessageCount tallies the load-information traffic of a run,
// supporting the paper's §2.4 scalability argument.
type MessageCount struct {
	PollRequests        int64 // client -> server load inquiries
	PollResponses       int64 // server -> client answers used
	PollsDiscarded      int64 // answers abandoned by the discard deadline
	Broadcasts          int64 // server load announcements
	BroadcastDeliveries int64 // per-client deliveries processed
	Dispatches          int64 // service requests sent
}

// Total returns all load-information messages (excluding the service
// dispatches themselves): what §2.4 counts when comparing policies.
func (m MessageCount) Total() int64 {
	return m.PollRequests + m.PollResponses + m.Broadcasts + m.BroadcastDeliveries
}

// Result reports the measured behaviour of one run.
type Result struct {
	Config Config

	// Response summarizes access response times in seconds (poll time
	// included, as in the paper), over post-warmup accesses.
	Response *stats.Summary
	// PollTime summarizes per-access polling durations in seconds
	// (zero observations for non-polling policies).
	PollTime *stats.Summary
	// Messages tallies load-information traffic.
	Messages MessageCount
	// ServerUtilization is each server's busy fraction.
	ServerUtilization []float64
	// MeanQueueLength is the time-averaged queue length (load index)
	// across servers.
	MeanQueueLength float64
	// QueueSeries holds per-server queue-length series when
	// Config.RecordQueueSeries is set.
	QueueSeries []*QSeries
	// SimDuration is the simulated run length in seconds.
	SimDuration float64
	// EventsFired is the number of discrete events the engine executed,
	// the denominator of the events/sec throughput metric the simscale
	// benchmark tracks.
	EventsFired uint64

	// Lost counts accesses that never completed despite retries (always
	// zero without Faults).
	Lost int64
	// Retries counts poll re-rounds plus access re-dispatches after
	// failures (always zero without Faults).
	Retries int64

	// Membership churn (elastic runs; a fixed pool reports zero churn
	// with FinalPool = PeakPool = Servers).
	Joins  int64 // servers that joined or re-joined the routable pool
	Drains int64 // servers withdrawn from routing (still serving)
	Leaves int64 // drained servers retired from the run
	// FinalPool and PeakPool are the routable pool size at the end of
	// the run and its high-water mark.
	FinalPool int
	PeakPool  int

	// Metrics is the end-of-run snapshot of the obs.RunMetrics catalog
	// (taken after the engine drains, so cross-metric invariants hold).
	Metrics *obs.Snapshot
}

// access is one in-flight service access. Records are pooled by the
// runner: a record is minted with its callbacks bound once and then
// recycled when the access completes or is lost, so the steady-state
// dispatch path schedules pooled engine events with pooled callbacks —
// no per-access closure allocation.
type access struct {
	idx     int
	client  int
	attempt int
	srv     int          // chosen server of the current dispatch
	start   sim.Time     // arrival time; response time is measured from it
	service sim.Duration // service demand
	pollDur sim.Duration // polling duration of the deciding round

	// Callbacks bound to this record for its lifetime (across recycles).
	runArrival func() // the access's arrival event
	onArrive   func() // service request reaches the server
	onService  func() // the server finishes the access's service
	onDone     func() // response lands back at the client
	onFail     func() // broken round trip lands back at the client
	onRetry    func() // backoff elapsed: re-run server selection
}

// serverState models the paper's server — a FIFO queue feeding one
// non-preemptive processing unit, load index = queued + in service —
// as one compact record in the runner's value slice. Keeping all
// per-server state in a flat []serverState (no per-server engine or
// metrics pointers, no per-server heap allocations) is what lets a run
// hold 10k servers without pointer-chasing on every event.
type serverState struct {
	speed        float64 // work rate; demand d takes d/speed
	busyTime     sim.Duration
	curEnd       sim.Time     // when the job in service would complete
	curRemaining sim.Duration // remaining demand while paused
	curHandle    sim.Handle   // scheduled completion (cancellable)
	cur          *access      // the access in service
	qavg         stats.TimeWeighted
	series       *QSeries
	queue        []*access // FIFO ring: valid entries are queue[qhead:]
	qhead        int
	active       int // the load index
	busy         bool
	down         bool
	paused       bool
	hasCur       bool
}

// push appends a to the service queue, compacting the consumed prefix
// only when the backing array is full — amortized O(1), allocation-free
// once the queue has reached its high-water capacity.
//
//lint:noalloc
func (s *serverState) push(a *access) {
	if s.qhead > 0 && len(s.queue) == cap(s.queue) {
		n := copy(s.queue, s.queue[s.qhead:])
		for i := n; i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	s.queue = append(s.queue, a)
}

// pop removes and returns the head of the service queue, or nil.
//
//lint:noalloc
func (s *serverState) pop() *access {
	if s.qhead == len(s.queue) {
		return nil
	}
	a := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.queue[:0], 0
	}
	return a
}

// runner is one simulated run's full state. One runner serves every
// run, and every policy decision is one pick over the client's
// candidate view (see view). When the fault schedule is absent or inert
// (faults.Schedule.Active() == false), none of the failure machinery is
// allocated and the run takes exactly the paper model's RNG draws — the
// golden-seed harness (golden_test.go) pins this bit for bit. With an
// active schedule the same runner adds the failure handling that the
// prototype client implements: per-server quarantine fed by consecutive
// silent polls, jittered-backoff poll retries, bounded access retries
// after broken round trips, and random fallback when all polled servers
// are quarantined.
type runner struct {
	cfg Config
	eng *sim.Engine
	res *Result
	reg *obs.Registry
	rm  *obs.RunMetrics
	tr  *obs.Trace

	clientActor []string
	serverActor []string

	srv []serverState

	policyRNG *stats.RNG
	jitterRNG *stats.RNG
	stream    *workload.Stream

	// Lazy arrival scheduling: arrivals reserve a sequence band up front
	// (sim.Engine.ReserveSeqs) and each arrival event schedules the next
	// one, so the pending heap holds the in-flight population instead of
	// the whole access trace, with tie-breaking bit-identical to
	// scheduling everything up front.
	arrivalBase uint64
	nextIdx     int

	// commit is the IDEAL oracle's committed-work index (nil for other
	// policies): accurate load indexes acquired free of cost (§2), seen
	// as committed work, matching the prototype's centralized manager
	// which increments on assignment. Only servers that can take new
	// work are attached (reindex), so Min() routes around the rest.
	commit *core.LoadIndex
	// local is the per-client outstanding-access index (LocalLeast
	// only): the message-free least-connections rule. Attached like
	// commit.
	local []*core.LoadIndex

	tables []*core.LoadTable
	rrs    []core.RoundRobinState

	// Poll scratch: pollIdent is the identity permutation PollSet
	// requires (restored after every call, so it doubles as the
	// fixed pool's candidate view).
	pollIdent []int
	pollSwaps []int
	pollDst   []int
	// loads is the faulted LocalLeast scan's scratch (nil otherwise).
	loads []int

	ft *clientFaults
	ms *memberState // elastic membership (nil on fixed-pool runs)

	freeAcc  []*access  // recycled access records
	freePoll []*pollCtx // recycled poll round contexts

	completed int
	lost      int
	warmup    int
}

// newAccess takes an access record from the free-list, or mints one
// with its callbacks bound.
func (r *runner) newAccess() *access {
	if n := len(r.freeAcc); n > 0 {
		a := r.freeAcc[n-1]
		r.freeAcc[n-1] = nil
		r.freeAcc = r.freeAcc[:n-1]
		return a
	}
	a := &access{}
	a.runArrival = func() { r.arrival(a) }
	a.onArrive = func() { r.serverArrive(a) }
	a.onService = func() { r.serviceDone(a) }
	a.onDone = func() { r.accessDone(a) }
	a.onFail = func() { r.accessFailed(a) }
	a.onRetry = func() { r.handle(a) }
	return a
}

// recycle retires a finished access record to the free-list.
//
//lint:noalloc
func (r *runner) recycle(a *access) {
	r.freeAcc = append(r.freeAcc, a)
}

// emit records one trace event; actors is clientActor or serverActor
// (indexed lazily so the nil-trace path never touches them).
//
//lint:noalloc
func (r *runner) emit(name string, actors []string, idx int, a, b int64) {
	if r.tr != nil {
		r.tr.Emit(r.eng.Now().Seconds(), name, actors[idx], a, b)
	}
}

// record samples server id's load index into its time-weighted average
// (and optional series) at the current simulated time.
//
//lint:noalloc
func (r *runner) record(id int) {
	s := &r.srv[id]
	now := r.eng.Now().Seconds()
	s.qavg.Set(now, float64(s.active))
	if s.series != nil {
		s.series.record(now, s.active)
	}
}

// scheduleArrival draws the next access from the workload stream and
// schedules its arrival event in the reserved sequence band.
//
//lint:noalloc
func (r *runner) scheduleArrival() {
	i := r.nextIdx
	r.nextIdx++
	acc := r.stream.Next()
	a := r.newAccess()
	a.idx = i
	a.client = i % r.cfg.Clients
	a.attempt = 0
	a.pollDur = 0
	a.service = sim.FromSeconds(acc.Service)
	r.eng.AtSeq(sim.Time(sim.FromSeconds(acc.Arrival)), r.arrivalBase+uint64(i), a.runArrival)
}

// arrival is one access's arrival event: chain the next arrival (the
// workload stream is monotone in arrival time), then run the policy
// decision for this one.
//
//lint:noalloc
func (r *runner) arrival(a *access) {
	if r.nextIdx < r.cfg.Accesses {
		r.scheduleArrival()
	}
	a.start = r.eng.Now()
	r.handle(a)
}

// dispatch sends the access to a.srv; the response lands back at the
// client via onDone (or onFail when the round trip breaks under
// faults).
//
//lint:noalloc
func (r *runner) dispatch(a *access) {
	r.res.Messages.Dispatches++
	r.rm.Dispatches.Inc()
	r.emit("access.dispatch", r.clientActor, a.client, int64(a.srv), int64(a.idx))
	if r.commit != nil {
		r.commit.Add(a.srv, 1)
	}
	if r.local != nil {
		r.local[a.client].Add(a.srv, 1)
	}
	r.eng.After(r.cfg.ServiceNetDelay, a.onArrive)
}

// settle reverses dispatch's load-index commitments when the round trip
// concludes (completion or failure).
//
//lint:noalloc
func (r *runner) settle(a *access) {
	if r.commit != nil {
		r.commit.Add(a.srv, -1)
	}
	if r.local != nil {
		r.local[a.client].Add(a.srv, -1)
	}
}

// serverArrive enqueues the access at its server; an access arriving at
// a crashed server fails immediately (the connection is refused), one
// arriving at a paused server queues behind the stalled processing
// unit.
//
//lint:noalloc
func (r *runner) serverArrive(a *access) {
	s := &r.srv[a.srv]
	if s.down {
		if r.ft != nil {
			r.eng.After(r.cfg.ServiceNetDelay, a.onFail)
		}
		return
	}
	s.active++
	r.rm.ServerActive.Add(1)
	r.record(a.srv)
	if s.busy || s.paused {
		s.push(a)
		return
	}
	r.startService(a)
}

// startService begins a's service on its (idle) server.
//
//lint:noalloc
func (r *runner) startService(a *access) {
	s := &r.srv[a.srv]
	s.busy = true
	r.rm.WorkersBusy.Add(1)
	d := sim.Duration(float64(a.service) / s.speed)
	s.busyTime += d
	s.cur, s.hasCur = a, true
	s.curEnd = r.eng.Now().Add(d)
	s.curHandle = r.eng.After(d, a.onService)
}

// serviceDone completes a's service: the next queued access starts, and
// the response travels back to the client.
//
//lint:noalloc
func (r *runner) serviceDone(a *access) {
	s := &r.srv[a.srv]
	s.hasCur = false
	s.cur = nil
	s.active--
	r.rm.ServerActive.Add(-1)
	r.rm.ServerServed.Inc()
	r.record(a.srv)
	s.busy = false
	r.rm.WorkersBusy.Add(-1)
	if next := s.pop(); next != nil {
		r.startService(next)
	} else if r.ms != nil && s.active == 0 && r.ms.retiring[a.srv] {
		// An autoscaler-drained server retires once its queue empties.
		r.leave(a.srv)
	}
	r.eng.After(r.cfg.ServiceNetDelay, a.onDone)
}

// accessDone lands the response at the client and closes the access.
//
//lint:noalloc
func (r *runner) accessDone(a *access) {
	r.settle(a)
	r.completed++
	r.rm.Completions.Inc()
	r.rm.ResponseSeconds.Observe(r.eng.Now().Sub(a.start).Seconds())
	r.emit("access.complete", r.clientActor, a.client, int64(a.srv), int64(a.idx))
	if a.idx >= r.warmup {
		r.res.Response.Add(r.eng.Now().Sub(a.start).Seconds())
		if r.cfg.Policy.Kind == core.Poll {
			r.res.PollTime.Add(a.pollDur.Seconds())
		}
	}
	if r.cfg.Policy.Kind == core.Poll {
		r.rm.PollWaitSeconds.Observe(a.pollDur.Seconds())
	}
	r.recycle(a)
	r.finish()
}

// accessFailed lands a broken round trip at the client: quarantine the
// server and retry the whole server selection, up to
// faults.DefaultAccessRetries times.
func (r *runner) accessFailed(a *access) {
	r.settle(a)
	r.ft.quarantine(a.client, a.srv)
	if a.attempt >= faults.DefaultAccessRetries {
		r.lost++
		r.emit("access.lost", r.clientActor, a.client, int64(a.srv), int64(a.idx))
		r.recycle(a)
		r.finish()
		return
	}
	r.res.Retries++
	r.rm.Retries.Inc()
	r.emit("access.retry", r.clientActor, a.client, int64(a.srv), int64(a.attempt))
	attempt := a.attempt
	a.attempt++
	r.eng.After(r.ft.backoff(attempt), a.onRetry)
}

// finish stops the engine once every access is accounted for.
//
//lint:noalloc
func (r *runner) finish() {
	if r.completed+r.lost == r.cfg.Accesses {
		r.eng.Stop()
	}
}

// crash kills server id permanently: the in-service access and every
// queued access fail (their client connections break) and the load
// index drops to zero.
func (r *runner) crash(id int) {
	s := &r.srv[id]
	if s.down {
		return
	}
	s.down = true
	s.paused = false
	if s.hasCur {
		s.curHandle.Cancel()
		if r.ft != nil {
			r.eng.After(r.cfg.ServiceNetDelay, s.cur.onFail)
		}
		s.cur = nil
		s.hasCur = false
	}
	if s.busy {
		r.rm.WorkersBusy.Add(-1)
	}
	s.busy = false
	for a := s.pop(); a != nil; a = s.pop() {
		if r.ft != nil {
			r.eng.After(r.cfg.ServiceNetDelay, a.onFail)
		}
	}
	r.rm.ServerActive.Add(-int64(s.active))
	s.active = 0
	r.record(id)
	r.reindex(id)
}

// pause freezes server id's processing unit mid-job: the in-service
// access's completion is suspended with its remaining demand intact,
// and no queued access starts until resume.
func (r *runner) pause(id int) {
	s := &r.srv[id]
	if s.down || s.paused {
		return
	}
	s.paused = true
	if s.hasCur {
		s.curHandle.Cancel()
		s.curRemaining = s.curEnd.Sub(r.eng.Now())
	}
	r.reindex(id)
}

// resume unfreezes server id; the suspended access finishes its
// remaining demand, then the queue drains normally.
func (r *runner) resume(id int) {
	s := &r.srv[id]
	if s.down || !s.paused {
		return
	}
	s.paused = false
	r.reindex(id)
	if s.hasCur {
		a := s.cur
		s.curEnd = r.eng.Now().Add(s.curRemaining)
		s.curHandle = r.eng.After(s.curRemaining, a.onService)
		return
	}
	if !s.busy {
		if next := s.pop(); next != nil {
			r.startService(next)
		}
	}
}

// reindex attaches server id to the policy indexes (commit, local)
// exactly when it can take new work: up, not paused, and routable on an
// elastic pool. Every change that can flip that predicate — crash,
// pause, resume, join, drain — calls it, so a drained server that
// resumes from a pause stays detached. The tracked load survives
// detachment.
//
//lint:noalloc
func (r *runner) reindex(id int) {
	s := &r.srv[id]
	set := (*core.LoadIndex).Remove
	if !s.down && !s.paused && (r.ms == nil || r.ms.routable[id]) {
		set = (*core.LoadIndex).Restore
	}
	if r.commit != nil {
		set(r.commit, id)
	}
	for _, li := range r.local {
		set(li, id)
	}
}

// pollCtx is one access's poll round (and its fault-aware retries),
// pooled like access records: its slices and per-slot observation
// callbacks are reused across rounds, so a poll-policy access schedules
// only pooled events with pooled callbacks. Every observation is due
// strictly before the round closes (obsAt < respAt <= close), so
// recycling in the decision callback is safe.
type pollCtx struct {
	a         *access
	round     int      // retry number, 0 for the first round
	start     sim.Time // when the round's inquiries go out
	deadline  sim.Time
	polled    []int
	respAt    []sim.Time
	fate      []slotFate
	responses []core.PollResponse
	obsFns    []func() // obsFns[i] observes polled[i] at the server
	decideFn  func()
	retryFn   func()
}

// slotFate is what became of one poll slot's inquiry.
type slotFate uint8

const (
	slotSilent   slotFate = iota // no answer (yet): in flight, or its server was down or paused
	slotDropped                  // lost on the link; never reaches the server
	slotLate                     // due past the close; discarded at round start
	slotAnswered                 // answered in time
)

// newPollCtx returns c, or a context from the free-list (or a fresh
// one) when c is nil, with observation callbacks for d poll slots.
func (r *runner) newPollCtx(c *pollCtx, d int) *pollCtx {
	if c == nil {
		if n := len(r.freePoll); n > 0 {
			c = r.freePoll[n-1]
			r.freePoll[n-1] = nil
			r.freePoll = r.freePoll[:n-1]
		} else {
			c = &pollCtx{}
			c.decideFn = func() { r.pollDecide(c) }
			c.retryFn = func() { r.pollRetry(c) }
		}
		c.round = 0
	}
	for i := len(c.obsFns); i < d; i++ {
		i := i
		c.obsFns = append(c.obsFns, func() { r.pollObserve(c, i) })
	}
	return c
}

// pollRound is the paper's poll round over the candidate view, on c
// (nil for an access's first round). Every inquiry's fate is drawn up
// front, in slot order: a link fault may drop it or delay its answer.
// The round closes when the last answer is due, capped uniformly by
// DefaultPollTimeout and the policy's discard threshold; a dropped
// inquiry holds it open to that deadline. A healthy run has no fault
// state, so every inquiry is answered and no fault draw is taken.
//
//lint:noalloc
func (r *runner) pollRound(a *access, c *pollCtx, view []int) {
	cfg := &r.cfg
	set := core.PollSet(r.policyRNG, len(view), cfg.Policy.PollSize, r.pollDst, r.pollIdent, r.pollSwaps)
	c = r.newPollCtx(c, len(set))
	c.a = a
	c.start = r.eng.Now()
	c.polled = c.polled[:0]
	for _, i := range set {
		c.polled = append(c.polled, view[i])
	}
	r.res.Messages.PollRequests += int64(len(c.polled))
	r.rm.PollRequests.Add(int64(len(c.polled)))

	c.deadline = c.start.Add(DefaultPollTimeout)
	if d := cfg.Policy.DiscardAfter; d > 0 {
		if dl := c.start.Add(sim.FromSeconds(d.Seconds())); dl < c.deadline {
			c.deadline = dl
		}
	}
	closeAt := c.start // the last answer due, capped by the deadline
	c.respAt, c.fate, c.responses = c.respAt[:0], c.fate[:0], c.responses[:0]
	for _, srv := range c.polled {
		fate, resp := slotSilent, c.deadline
		if drop, extra := r.ft.pollFault(a.client, srv); drop {
			r.rm.InquiriesDropped.Inc()
			fate = slotDropped
		} else {
			rtt := cfg.PollRTT + extra
			if cfg.PollJitter != nil {
				rtt += sim.FromSeconds(cfg.PollJitter.Sample(r.jitterRNG))
			}
			resp = c.start.Add(rtt)
		}
		c.respAt = append(c.respAt, resp)
		c.fate = append(c.fate, fate)
		if resp > closeAt {
			closeAt = resp
		}
	}
	if closeAt > c.deadline {
		closeAt = c.deadline
	}
	for i, srv := range c.polled {
		resp := c.respAt[i]
		switch {
		case c.fate[i] == slotDropped:
		case resp > closeAt:
			c.fate[i] = slotLate
			r.res.Messages.PollsDiscarded++
			r.rm.PollDiscards.Inc()
			r.emit("poll.discard", r.clientActor, a.client, int64(srv), int64(a.idx))
			// A live server answers a discarded inquiry past the close,
			// so it is both a discard and a late answer (prototype
			// semantics).
			if s := &r.srv[srv]; !s.down && !s.paused {
				r.rm.PollLate.Inc()
				r.rm.InquiriesServed.Inc()
				r.rm.PollRTTSeconds.Observe(resp.Sub(c.start).Seconds())
			}
		default:
			// The inquiry reaches the server halfway through its round
			// trip, and its load is observed there.
			r.eng.At(resp.Add(-sim.Duration(resp.Sub(c.start)/2)), c.obsFns[i])
		}
	}
	r.eng.At(closeAt, c.decideFn)
}

// pollObserve is poll slot i's observation event: the inquiry reaches
// the server and reads its load index; the answer lands back at the
// client at respAt[i], within the close by construction. A crashed or
// stalled server never answers.
//
//lint:noalloc
func (r *runner) pollObserve(c *pollCtx, i int) {
	srv := c.polled[i]
	if s := &r.srv[srv]; s.down || s.paused {
		r.rm.InquiriesDropped.Inc()
		return
	}
	c.fate[i] = slotAnswered
	c.responses = append(c.responses, core.PollResponse{Server: srv, Load: r.srv[srv].active})
	r.res.Messages.PollResponses++
	r.rm.PollResponses.Inc()
	r.rm.InquiriesServed.Inc()
	r.rm.PollRTTSeconds.Observe(c.respAt[i].Sub(c.start).Seconds())
}

// pollDecide closes the round and dispatches on its answers. A round
// with a silent slot stays open until the deadline. With no answers at
// all, a faulted run backs off and polls again, up to
// faults.DefaultPollRetries times, then falls back to random.
//
//lint:noalloc
func (r *runner) pollDecide(c *pollCtx) {
	a := c.a
	if len(c.responses) < len(c.polled) && r.eng.Now() < c.deadline {
		r.eng.At(c.deadline, c.decideFn)
		return
	}
	for i, srv := range c.polled {
		switch c.fate[i] {
		case slotAnswered:
			r.ft.noteAnswered(a.client, srv)
			continue
		case slotSilent, slotDropped:
			r.res.Messages.PollsDiscarded++
			r.rm.PollDiscards.Inc()
			r.emit("poll.discard", r.clientActor, a.client, int64(srv), int64(a.idx))
		}
		r.ft.noteSilent(a.client, srv)
	}
	switch {
	case len(c.responses) > 0 || r.ft == nil:
		r.pollDone(c, r.pickPolled(a.client, c.responses, c.polled))
	case c.round >= faults.DefaultPollRetries:
		// Every round was silence: random fallback among the servers
		// still believed live (or all, if none).
		view, _ := r.view(a.client)
		r.pollDone(c, view[r.policyRNG.Intn(len(view))])
	default:
		r.res.Retries++
		r.rm.Retries.Inc()
		r.emit("poll.retry", r.clientActor, a.client, int64(c.round), int64(a.idx))
		r.eng.After(r.ft.backoff(c.round), c.retryFn)
	}
}

// pollRetry is a silent round's backoff expiring: poll the client's
// current view again, or go random when it has quarantined everything.
//
//lint:noalloc
func (r *runner) pollRetry(c *pollCtx) {
	view, all := r.view(c.a.client)
	if all {
		r.pollDone(c, view[r.policyRNG.Intn(len(view))])
		return
	}
	c.round++
	r.pollRound(c.a, c, view)
}

// pollDone recycles c and dispatches its access to srv.
//
//lint:noalloc
func (r *runner) pollDone(c *pollCtx, srv int) {
	a := c.a
	a.srv = srv
	a.pollDur = r.eng.Now().Sub(a.start)
	c.a = nil
	r.freePoll = append(r.freePoll, c)
	r.dispatch(a)
}

// pickPolled closes a poll round on its answers. A server drained
// while the round was in flight has left the view, so an access the
// answers would send there goes to a random member of the client's
// current view instead.
//
//lint:noalloc
func (r *runner) pickPolled(client int, responses []core.PollResponse, polled []int) int {
	srv := core.PickFromPolls(r.policyRNG, responses, polled)
	if r.ms != nil && !r.ms.routable[srv] {
		view, _ := r.view(client)
		srv = view[r.policyRNG.Intn(len(view))]
	}
	return srv
}

// view returns client's candidate view: the base set — the identity
// over a fixed pool, the routable members of an elastic one — minus
// the servers the client has quarantined. When the client has
// quarantined everything it returns the whole base set and all = true.
// Without faults it is the base set itself. The quarantine-filtered
// view lives in scratch the next call overwrites.
//
//lint:noalloc
func (r *runner) view(client int) (view []int, all bool) {
	view = r.pollIdent[:r.cfg.Servers]
	if r.ms != nil {
		view = r.ms.members
	}
	if r.ft == nil {
		return view, false
	}
	if cands := r.ft.candidates(client, view); len(cands) > 0 {
		return cands, false
	}
	return view, true
}

// handle runs the policy decision for one access: one pick over the
// client's candidate view. On a healthy fixed pool the view is the
// identity, so every pick is the paper's model, draw for draw.
//
//lint:noalloc
func (r *runner) handle(a *access) {
	cfg := &r.cfg
	view, all := r.view(a.client)
	a.pollDur = 0
	switch cfg.Policy.Kind {
	case core.Random:
		a.srv = view[r.policyRNG.Intn(len(view))]

	case core.RoundRobin:
		a.srv = view[r.rrs[a.client].Next(len(view))]

	case core.Ideal:
		// O(1) via the committed-work index; equal loads go to the
		// lowest server id (deterministic JSQ). The omniscient oracle
		// routes around dead, stalled and drained servers directly
		// (they are detached); quarantine is the clients' crutch, not
		// the oracle's.
		a.srv = r.commit.Min()
		if a.srv < 0 {
			a.srv = view[r.policyRNG.Intn(len(view))]
		}

	case core.LocalLeast:
		li := r.local[a.client]
		if r.ft == nil {
			// Without faults the index holds exactly the view.
			a.srv = li.Min()
			break
		}
		// Quarantine varies the view per client and per access, so this
		// scans it, reservoir tie-breaking like core.PickLeast.
		loads := r.loads[:len(view)]
		for i, srv := range view {
			loads[i] = li.Load(srv)
		}
		a.srv = view[core.PickLeast(r.policyRNG, loads)]

	case core.Broadcast:
		// Broadcast runs only on a healthy fixed pool (withDefaults),
		// whose view is every server the tables cover.
		tbl := r.tables[a.client]
		a.srv = tbl.PickLeast(r.policyRNG)
		if cfg.Policy.LocalCorrection {
			tbl.Increment(a.srv)
		}

	case core.Poll:
		if !all {
			r.pollRound(a, nil, view)
			return
		}
		// All quarantined: skip the pointless poll, go random.
		a.srv = view[r.policyRNG.Intn(len(view))]
	}
	r.dispatch(a)
}

// newRunner validates cfg and builds the run: engine, RNG streams,
// server state, fault machinery, policy state, and the first arrival.
// The construction order (and hence sequence-number and RNG-draw
// order) is part of the golden contract.
func newRunner(cfg Config) (*runner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	master := stats.NewRNG(cfg.Seed)
	arrivalRNG := master.Split()
	policyRNG := master.Split()
	jitterRNG := master.Split()

	r := &runner{
		cfg: cfg,
		eng: eng,
		res: &Result{
			Config:   cfg,
			Response: stats.NewSummary(true),
			PollTime: stats.NewSummary(true),
		},
		policyRNG: policyRNG,
		jitterRNG: jitterRNG,
		warmup:    int(float64(cfg.Accesses) * cfg.WarmupFrac),
	}

	// Observability. The catalog always exists (a private registry when
	// the caller supplied none) so instrumentation is branch-free; it
	// schedules no events and draws no randomness, keeping seeded runs
	// bit-identical with or without a caller registry.
	r.reg = cfg.Metrics
	if r.reg == nil {
		r.reg = obs.NewRegistry()
	}
	r.rm = obs.NewRunMetrics(r.reg)
	// Elastic runs can grow past Servers; every capacity below is sized
	// to the reachable maximum so growth reuses reserved space instead
	// of reallocating. Fixed-pool runs have maxPool == Servers, leaving
	// every allocation exactly as it was.
	maxPool := cfg.maxPool()
	r.tr = cfg.Trace
	if r.tr != nil {
		r.clientActor = make([]string, cfg.Clients)
		for i := range r.clientActor {
			r.clientActor[i] = "client:" + strconv.Itoa(i)
		}
		r.serverActor = make([]string, maxPool)
		for i := range r.serverActor {
			r.serverActor[i] = "server:" + strconv.Itoa(i)
		}
	}

	r.srv = make([]serverState, cfg.Servers, maxPool)
	for i := range r.srv {
		s := &r.srv[i]
		s.speed = r.speedFor(i)
		if cfg.RecordQueueSeries {
			s.series = &QSeries{}
		}
		r.record(i)
	}

	// Fault machinery, allocated only for an active schedule: the
	// healthy path pays nothing and draws nothing extra.
	if cfg.Faults.Active() {
		r.ft = newClientFaults(eng, cfg.Faults, cfg.Clients, maxPool)
		r.ft.onQuarantine = func(client, srv int) {
			r.rm.Quarantines.Inc()
			r.emit("client.quarantine", r.clientActor, client, int64(srv), 0)
		}
		// Replay node events on the simulated clock. On an elastic pool
		// an event may name a server that has not joined yet; it grows
		// the pool as an inert placeholder, which join then attaches.
		for _, ev := range cfg.Faults.Sorted() {
			ev := ev
			if ev.Node >= maxPool {
				continue
			}
			eng.At(sim.Time(sim.FromSeconds(ev.At.Seconds())), func() {
				r.growTo(ev.Node + 1)
				switch ev.Kind {
				case faults.Crash:
					r.crash(ev.Node)
					r.emit("server.crash", r.serverActor, ev.Node, 0, 0)
				case faults.Pause:
					r.pause(ev.Node)
					r.emit("server.pause", r.serverActor, ev.Node, 0, 0)
				case faults.Resume:
					r.resume(ev.Node)
					r.emit("server.resume", r.serverActor, ev.Node, 0, 0)
				}
			})
		}
	}

	// Per-client policy state.
	r.rrs = make([]core.RoundRobinState, cfg.Clients)
	if cfg.Policy.Kind == core.Broadcast {
		r.tables = make([]*core.LoadTable, cfg.Clients)
		for i := range r.tables {
			r.tables[i] = core.NewLoadTable(cfg.Servers)
		}
	}
	if cfg.Policy.Kind == core.LocalLeast {
		r.local = make([]*core.LoadIndex, cfg.Clients)
		for i := range r.local {
			r.local[i] = core.NewLoadIndexCap(cfg.Servers, maxPool)
		}
	}
	if cfg.Policy.Kind == core.Ideal {
		r.commit = core.NewLoadIndexCap(cfg.Servers, maxPool)
	}
	r.pollIdent = core.Identity(maxPool)
	r.pollSwaps = make([]int, maxPool)
	r.pollDst = make([]int, maxPool)
	if r.ft != nil && r.local != nil {
		r.loads = make([]int, maxPool)
	}

	// Elastic membership, allocated only for an active schedule or
	// autoscaler: the fixed-pool path pays nothing and draws nothing.
	if cfg.elastic() {
		r.setupElastic(maxPool)
	}

	// Broadcast agents.
	if cfg.Policy.Kind == core.Broadcast {
		mean := sim.FromSeconds(cfg.Policy.BroadcastInterval.Seconds())
		for id := range r.srv {
			id := id
			interval := func() sim.Duration {
				if cfg.Policy.BroadcastFixed {
					return mean
				}
				// Jittered uniformly over [0.5, 1.5] x mean (§2.2).
				f := 0.5 + jitterRNG.Float64()
				return sim.Duration(float64(mean) * f)
			}
			eng.Every(interval, func() {
				r.res.Messages.Broadcasts++
				load := r.srv[id].active
				eng.After(cfg.BroadcastDelay, func() {
					for _, tbl := range r.tables {
						tbl.Update(id, load)
						r.res.Messages.BroadcastDeliveries++
					}
				})
			})
		}
	}

	// Arrivals: reserve the whole trace's sequence band, then chain
	// arrival events lazily. Accesses are assigned to clients
	// round-robin, mirroring the paper's multiple client nodes sharing
	// the workload.
	r.stream = cfg.Workload.Stream(arrivalRNG.Uint64())
	r.arrivalBase = eng.ReserveSeqs(uint64(cfg.Accesses))
	r.scheduleArrival()
	return r, nil
}

// collect assembles the Result after the engine has drained.
func (r *runner) collect() *Result {
	end := r.eng.Now().Seconds()
	res := r.res
	res.SimDuration = end
	res.EventsFired = r.eng.Fired()
	// len(r.srv) == cfg.Servers on fixed-pool runs; elastic runs report
	// every server the run ever grew (joined servers count their
	// pre-join span as idle).
	res.ServerUtilization = make([]float64, len(r.srv))
	var qsum float64
	for i := range r.srv {
		s := &r.srv[i]
		if end > 0 {
			res.ServerUtilization[i] = s.busyTime.Seconds() / end
		}
		qsum += s.qavg.Finish(end)
		if r.cfg.RecordQueueSeries {
			res.QueueSeries = append(res.QueueSeries, s.series)
		}
	}
	res.MeanQueueLength = qsum / float64(len(r.srv))
	res.FinalPool, res.PeakPool = r.cfg.Servers, r.cfg.Servers
	if r.ms != nil {
		res.Joins, res.Drains, res.Leaves = r.ms.joins, r.ms.drains, r.ms.leaves
		res.FinalPool = len(r.ms.members)
		res.PeakPool = r.ms.peakPool
	}
	// Accesses stranded on a paused-forever server drain no events, so
	// the engine exits with them still frozen; they are lost too.
	res.Lost = int64(r.cfg.Accesses - r.completed)
	r.rm.Lost.Add(res.Lost)
	res.Metrics = r.reg.Snapshot()
	return res
}

// Run executes one simulated experiment and returns its measurements.
func Run(cfg Config) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	r.eng.Run()
	return r.collect(), nil
}

// MeanResponse is a convenience accessor: the run's mean response time
// in seconds.
func (r *Result) MeanResponse() float64 { return r.Response.Mean() }

// MeanUtilization returns the average server busy fraction.
func (r *Result) MeanUtilization() float64 {
	var t float64
	for _, u := range r.ServerUtilization {
		t += u
	}
	return t / float64(len(r.ServerUtilization))
}

// Describe summarizes the run in one line for logs.
func (r *Result) Describe() string {
	return fmt.Sprintf("%s %s n=%d: mean=%.3fms p95=%.3fms util=%.3f msgs=%d",
		r.Config.Workload.Name, r.Config.Policy, r.Config.Servers,
		r.Response.Mean()*1e3, r.Response.Percentile(0.95)*1e3,
		r.MeanUtilization(), r.Messages.Total())
}
