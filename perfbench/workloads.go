package main

import (
	"math"
	"runtime"
	"time"

	"finelb/internal/simcluster"
	"finelb/internal/stats"
	"finelb/internal/workload"
)

// Phase lengths. A run measures for --seconds: untraced, the whole
// window is the workload; traced, the window is split between an
// untraced and a traced pass of the workload, and the layer rungs run
// after it for a fixed time each.
//
// The warm-up outlasts the 2 s dial-slot timer every access leaves
// behind in the client's connection pool, so the timed phase starts
// with the heap (and the runtime's timer heaps) at their steady size.
func (r *run) warm() time.Duration {
	if r.tiny {
		return 50 * time.Millisecond
	}
	return 2500 * time.Millisecond
}

func (r *run) rungDur() time.Duration {
	if r.tiny {
		return 50 * time.Millisecond
	}
	return 400 * time.Millisecond
}

// setupBoots is how many times a run boots its prototype cluster
// untimed, then timed; a boot takes milliseconds, so many are cheap and
// the median of the timed ones is steady.
func (r *run) setupBoots() (warm, reps int) {
	if r.tiny {
		return 1, 2
	}
	return 30, 21
}

func (r *run) window() time.Duration {
	d := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		d /= 2
	}
	return d
}

// setLedger sets the reconciliation row: the end-to-end mean against
// the sum of the layer self-times measured on their own, with the
// residual shown rather than folded into any layer.
func (r *run) setLedger(e2eUs, layerSumUs float64) {
	r.set("ledger.e2e_mean_us", e2eUs)
	r.set("ledger.layer_sum_us", layerSumUs)
	r.set("ledger.residual_frac", ratio(e2eUs-layerSumUs, e2eUs))
}

func (r *run) setOverhead(untracedPerS, tracedPerS float64) {
	r.set("trace.overhead_frac", 1-ratio(tracedPerS, untracedPerS))
}

// ladder runs the fixture-independent rungs: codecs and both
// transports' datagram and stream planes.
func (r *run) ladder() error {
	if err := codecRungs(r, r.rungDur()/2); err != nil {
		return err
	}
	return transportRungs(r, r.rungDur()/2)
}

// zeroFixture is the zero-service mem cluster.
func (r *run) zeroFixture() fixtureConfig {
	return fixtureConfig{callers: r.nproc, seed: r.seed}
}

// tracedOf is cfg with the counting transport and, for zero-service
// clusters, the dequeue-stamping handler.
func tracedOf(cfg fixtureConfig, stamp bool) fixtureConfig {
	cfg.traced, cfg.stamp = true, stamp
	return cfg
}

// closedE2E boots cfg setupReps times (reporting the median as
// setup_s), then runs zero-service accesses closed loop for the window
// and sets the end-to-end metrics. It returns the loop for callers
// that need more.
func (r *run) closedE2E(cfg fixtureConfig, setup bool) (*loopResult, error) {
	warm, reps := 0, 1
	if setup {
		warm, reps = r.setupBoots()
	}
	f, setupS, setups, err := bootTimed(cfg, warm, reps)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if setup {
		r.set("setup_s", setupS)
		r.env["setup_reps"] = len(setups)
		r.env["setup_spread"] = spread(setups)
	}
	before := f.served()
	heap := startHeapPeak()
	span := beginSpan()
	loop := closedLoop(r.nproc, r.warm(), r.window(), r.seed, accessOp(f, r.nproc, nil))
	sp := span.end()
	peak := heap.windowMB(loop)
	r.env["cpu_util"] = sp.cpuUtil
	r.env["cpu_us_per_access"] = ratio(sp.cpuUtil*sp.wall.Seconds()*float64(r.nproc)*1e6, float64(loop.ok))
	r.env["gc_cpu_frac"] = sp.gcFrac
	if err := r.loopChecks("workload", loop); err != nil {
		return nil, err
	}
	after := f.served()
	r.check(after-before == loop.ok, "conservation: nodes served %d accesses, callers completed %d", after-before, loop.ok)
	r.setEndToEnd(loop, peak)
	return loop, nil
}

// runMemZero: closed loop of zero-service Client.Access on the mem
// fabric.
func runMemZero(r *run) error {
	r.env["transport"] = "mem"
	cfg := r.zeroFixture()
	untraced, err := r.closedE2E(cfg, !r.traced)
	if err != nil || !r.traced {
		return err
	}
	f, err := bootFixture(tracedOf(cfg, true))
	if err != nil {
		return err
	}
	defer f.close()
	pt, err := tracedAccessPhase(r, f, r.warm(), r.window())
	if err != nil {
		return err
	}
	r.setRuntime(pt.span)
	r.setLoadgen(pt.loop)
	r.setOverhead(untraced.accessesPerS(), pt.loop.accessesPerS())
	costs, err := r.clusterRungs(f)
	if err != nil {
		return err
	}
	r.setLedger(untraced.lat.meanUs(), costs.pollUs+costs.rpcUs)
	return simRung(r)
}

// clusterRungs runs the poll and RPC rungs on f, the gateway rung on
// a cluster of its own, and the fixture-independent ladder. It returns
// the mean self-times the ledger charges a zero-service access.
func (r *run) clusterRungs(f *fixture) (layerCosts, error) {
	var c layerCosts
	var err error
	if c.pollUs, err = pollRung(r, f, r.rungDur()); err != nil {
		return c, err
	}
	if c.rpcUs, err = rpcRung(r, f, r.rungDur()); err != nil {
		return c, err
	}
	if err := r.gatewayRung(); err != nil {
		return c, err
	}
	return c, r.ladder()
}

// layerCosts are mean per-access self-times in microseconds.
type layerCosts struct{ pollUs, rpcUs float64 }

// gatewayRung boots a zero-service cluster on transport.Net fronted by
// the gateway, and sets the gateway metrics from POST /access over
// loopback TCP. The gateway's self time is its HTTP round trip minus a
// zero-service Client.Access at the same concurrency on the same
// cluster, measured back to back.
func (r *run) gatewayRung() error {
	f, err := bootFixture(fixtureConfig{net: true, callers: r.nproc, seed: r.seed})
	if err != nil {
		return err
	}
	defer f.close()
	base := closedLoop(r.nproc, r.rungDur()/10, r.rungDur(), r.seed+13, accessOp(f, r.nproc, nil))
	if err := r.loopChecks("access rung", base); err != nil {
		return err
	}
	l, sp, err := gatewayPhase(r, f, r.rungDur()/10, r.rungDur())
	if err != nil {
		return err
	}
	r.setGateway(f, l, sp, base.lat.pctUs(0.5))
	return nil
}

// fine90Schedule draws the open-loop arrivals: Poisson at the rate that
// loads 16 one-worker nodes to rho = 0.9 with Fine-Grain service
// demands, over span.
func fine90Schedule(seed uint64, span time.Duration) (sched []arrival, rate float64) {
	rate = simLoad * clusterNodes / workload.FineGrainServiceMean
	service := workload.FineGrain().Service
	rng := stats.NewRNG(seed)
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d > span {
			return sched, rate
		}
		us := math.Max(1, math.Round(service.Sample(rng)*1e6))
		sched = append(sched, arrival{at: d, serviceUs: uint32(us)})
	}
}

// fine90Warm is the open-loop warm-up: long enough for the queues to
// reach their steady state from empty, and as long as warm.
func (r *run) fine90Warm() time.Duration {
	if r.tiny {
		return 100 * time.Millisecond
	}
	return r.warm()
}

// fine90Phase runs the open-loop Fine-Grain workload on f; a non-nil
// book also collects AccessInfo.
func (r *run) fine90Phase(f *fixture, seed uint64, book *accessBook) (*loopResult, float64, error) {
	sched, rate := fine90Schedule(seed, r.fine90Warm()+r.window())
	before := f.served()
	loop := openLoop(sched, r.fine90Warm(), seed, func(a arrival, t0 time.Time) error {
		p := payloadFor(make([]byte, 8), 0, uint64(a.at))
		info, err := f.client.Access(a.serviceUs, p)
		if err != nil {
			return err
		}
		if book != nil {
			took := time.Since(t0)
			book.mu.Lock()
			book.note(0, info, took, time.Duration(a.serviceUs)*time.Microsecond)
			book.mu.Unlock()
		}
		return checkReply(info, p)
	})
	if err := r.loopChecks("workload", loop); err != nil {
		return nil, 0, err
	}
	after := f.served()
	r.check(after-before == loop.ok, "conservation: nodes served %d accesses, generator completed %d", after-before, loop.ok)
	delivered := loop.accessesPerS()
	r.check(math.Abs(delivered/rate-1) <= fine90RateTolerance,
		"delivered rate %.1f/s is not within %.0f%% of the offered %.1f/s", delivered, fine90RateTolerance*100, rate)
	return loop, rate, nil
}

// fine90RateTolerance is how far the delivered rate may sit from the
// offered one: the realized Poisson count over a 10 s window is within
// about 1 % of its mean, so 5 % only fails when the cluster falls
// behind its load.
const fine90RateTolerance = 0.05

// runMemFine90: open-loop Poisson arrivals with Fine-Grain service at
// rho = 0.9 on 16 mem nodes that sleep for the service time.
func runMemFine90(r *run) error {
	r.env["transport"] = "mem"
	cfg := fixtureConfig{callers: r.nproc, seed: r.seed}
	warm, reps := 0, 1
	if !r.traced {
		warm, reps = r.setupBoots()
	}
	f, setupS, setups, err := bootTimed(cfg, warm, reps)
	if err != nil {
		return err
	}
	heap := startHeapPeak()
	untraced, rate, err := r.fine90Phase(f, r.seed, nil)
	f.close()
	if err != nil {
		heap.end()
		return err
	}
	peak := heap.windowMB(untraced)
	r.env["offered_per_s"] = rate
	if !r.traced {
		r.set("setup_s", setupS)
		r.env["setup_reps"] = len(setups)
		r.env["setup_spread"] = spread(setups)
		r.setEndToEnd(untraced, peak)
		return nil
	}
	tf, err := bootFixture(tracedOf(cfg, false))
	if err != nil {
		return err
	}
	defer tf.close()
	book := newAccessBook(1, r.seed)
	before := tf.nodeTotals()
	perBefore := tf.servedPerNode()
	counts := tf.counts.snapshot()
	late := tf.client.LateAnswers()
	span := beginSpan()
	loop, _, err := r.fine90Phase(tf, r.seed, book)
	sp := span.end()
	if err != nil {
		return err
	}
	b := book.total()
	r.setAccessBook(b, sp, loop.ok+loop.failed)
	r.setNodeAndTransport(tf, before, perBefore, counts, late, loop.ok)
	r.setN("cluster.node.queue_wait_us.p50", b.queueWait.pctUs(0.5), b.queueWait.n)
	r.setRuntime(sp)
	r.setLoadgen(loop)
	r.setOverhead(untraced.accessesPerS(), loop.accessesPerS())
	// The rungs run on the now idle cluster at zero service time; the
	// ledger charges each access its generator lag, its poll, its
	// requested service and one idle node RPC, leaving queueing (and
	// whatever else the layers do not account for) as the residual.
	costs, err := r.clusterRungs(tf)
	if err != nil {
		return err
	}
	n := float64(b.n)
	r.setLedger(untraced.lat.meanUs(), loop.lag.meanUs()+b.pollNs/n/1e3+b.serviceNs/n/1e3+costs.rpcUs)
	return simRung(r)
}

// Simulator sizing: sim_fine runs the simulation in chunks of
// simChunk accesses, each replayed from its own generated trace, until
// the window is spent. Each chunk is timed in segments of
// simSegments-th of its accesses.
const (
	simServers   = 10000
	simChunk     = 500_000
	simSegments  = 20
	simSetupReps = 5 // generations of the first chunk's trace
)

// recordedMeanUs is the simulated mean response time, in microseconds,
// of the first chunk at seed 1: a determinism check on the simulator.
const recordedMeanUs = 5217.35743928

func (r *run) simSize() (servers, chunk int) {
	if r.tiny {
		return 200, 20000
	}
	return simServers, simChunk
}

// simPass runs chunks until window of simulation wall time is spent.
type simPass struct {
	accesses, events int64
	chunks           int
	wall             time.Duration
	mallocs          uint64
	lat              *recorder // simulated response times
	setups           []float64
	rates            []float64 // accesses per wall second, per segment
}

func (r *run) simPass(window time.Duration, setupReps int) (*simPass, error) {
	servers, chunk := r.simSize()
	p := &simPass{lat: newRecorder(r.seed)}
	// Every chunk's trace is generated into the same buffer, once the
	// previous chunk's run is over: set-up times the generation itself,
	// not the first touch of fresh memory.
	buf := make(workload.Trace, chunk)
	var prog *progress
	gen := func(i int) simcluster.Config {
		runtime.GC() // as for the cluster boots (bootTimed)
		t0 := time.Now()
		prog = &progress{every: chunk / simSegments}
		cfg := simConfig(servers, buf, r.seed+uint64(i)*1_000_003, prog)
		p.setups = append(p.setups, time.Since(t0).Seconds())
		return cfg
	}
	var cfg simcluster.Config
	for k := 0; k < setupReps; k++ {
		cfg = gen(0)
	}
	for i := 0; ; i++ {
		if i > 0 {
			cfg = gen(i)
		}
		m0 := mallocs()
		t0 := time.Now()
		res, err := simcluster.Run(cfg)
		if err != nil {
			return nil, err
		}
		p.wall += time.Since(t0)
		p.mallocs += mallocs() - m0
		for j := 1; j < len(prog.stamps); j++ {
			p.rates = append(p.rates, float64(prog.every)/prog.stamps[j].Sub(prog.stamps[j-1]).Seconds())
		}
		warm := int64(float64(chunk) * 0.1)
		r.attempted += int64(chunk)
		r.check(res.Response.N()+warm == int64(chunk) && res.Lost == 0,
			"sim chunk %d: %d of %d accesses completed, %d lost", i, res.Response.N()+warm, chunk, res.Lost)
		if i == 0 && r.seed == 1 && !r.tiny {
			got := res.Response.Mean() * 1e6
			r.check(math.Abs(got-recordedMeanUs) <= 1e-9*recordedMeanUs,
				"sim chunk 0 at seed 1: mean response %.12g us, recorded %.12g us", got, float64(recordedMeanUs))
		}
		p.chunks++
		p.accesses += int64(chunk)
		p.events += int64(res.EventsFired)
		for _, x := range res.Response.Samples() {
			p.lat.addNs(x * 1e9)
		}
		if p.wall >= window {
			return p, nil
		}
	}
}

func (p *simPass) accessesPerS() float64 { return float64(p.accesses) / p.wall.Seconds() }

// runSimFine: simcluster.Run on 10 000 servers, Fine-Grain trace at
// rho = 0.9, Poll(2). Latencies are simulated response times; set-up
// is workload construction plus trace generation. accesses_per_s is
// the median over the chunks' segments, so a burst of interference
// from outside the process moves one segment and not the run's figure.
func runSimFine(r *run) error {
	r.env["transport"] = "none (simulator); traced rungs use mem and net"
	if !r.traced {
		heap := startHeapPeak()
		p, err := r.simPass(r.window(), simSetupReps)
		peak := heap.MB()
		if err != nil {
			return err
		}
		r.set("setup_s", median(p.setups))
		r.env["setup_reps"] = len(p.setups)
		r.env["setup_spread"] = spread(p.setups)
		r.setN("accesses_per_s", median(p.rates), int64(len(p.rates)))
		r.setN("access_mean_us", p.lat.meanUs(), p.lat.n)
		r.setN("access_p50_us", p.lat.pctUs(0.5), int64(len(p.lat.res)))
		r.setN("access_p90_us", p.lat.pctUs(0.9), int64(len(p.lat.res)))
		r.env["access_p99_us"] = p.lat.pctUs(0.99)
		r.set("peak_heap_mb", peak)
		r.env["chunks"] = p.chunks
		r.env["events"] = p.events
		r.env["segment_rate_spread"] = spread(p.rates)
		r.env["pass_accesses_per_s"] = p.accessesPerS()
		return nil
	}
	span := beginSpan()
	p, err := r.simPass(r.window(), 1)
	sp := span.end()
	if err != nil {
		return err
	}
	r.set("sim.events_per_s", float64(p.events)/p.wall.Seconds())
	eventsPerAccess := float64(p.events) / float64(p.accesses)
	r.set("sim.events_per_access", eventsPerAccess)
	r.set("sim.allocs_per_event", float64(p.mallocs)/float64(p.events))
	r.setRuntime(sp)
	// A simulation has nothing to wrap or count: the traced pass is the
	// untraced one, so tracing costs nothing here.
	r.set("trace.overhead_frac", 0)
	engineEvents := 2_000_000
	if r.tiny {
		engineEvents = 50_000
	}
	nsPerEvent := engineRung(r, engineEvents)
	r.setLedger(1e6/p.accessesPerS(), eventsPerAccess*nsPerEvent/1e3)

	// The cluster layers have no part in a simulation, and the trace is
	// replayed on the simulated clock with no wall-clock generator. A
	// traced run must report every per-layer metric, so their rungs,
	// and the generator's, run on the mem_zero cluster.
	f, err := bootFixture(tracedOf(r.zeroFixture(), true))
	if err != nil {
		return err
	}
	defer f.close()
	pt, err := tracedAccessPhase(r, f, r.rungDur()/10, r.rungDur())
	if err != nil {
		return err
	}
	r.setLoadgen(pt.loop)
	_, err = r.clusterRungs(f)
	return err
}
