package simcluster

import (
	"finelb/internal/faults"
	"finelb/internal/sim"
	"finelb/internal/stats"
)

// clientFaults is the failure-detector state of a faulted run,
// mirroring the prototype client's serverHealth: per-client per-server
// quarantine fed by consecutive silent polls, link-fault decisions, and
// jittered retry backoff. Run allocates it only when the schedule is
// active, so healthy runs carry none of it.
//
// All fault decisions (link loss, backoff jitter) draw from a stream
// derived from the schedule's own seed, so the same Schedule and the
// same Config.Seed replay the exact same run.
type clientFaults struct {
	eng   *sim.Engine
	sched *faults.Schedule
	rng   *stats.RNG // link-loss draws and backoff jitter

	quarUntil [][]sim.Time // per client, per server
	strikes   [][]int
	quarFor   sim.Duration
	cands     []int // candidates' result scratch

	// onQuarantine, when set, observes every quarantine decision
	// (metrics/trace hook; it must not mutate fault state).
	onQuarantine func(client, srv int)
}

// newClientFaults sizes the per-server state to servers, the largest id
// space the run can reach.
func newClientFaults(eng *sim.Engine, sched *faults.Schedule, clients, servers int) *clientFaults {
	f := &clientFaults{
		eng:     eng,
		sched:   sched,
		rng:     stats.NewRNG(sched.Seed ^ 0x5eedfa017bad5eed),
		quarFor: sim.FromSeconds(faults.DefaultQuarantineFor.Seconds()),
		cands:   make([]int, 0, servers),
	}
	f.quarUntil = make([][]sim.Time, clients)
	f.strikes = make([][]int, clients)
	for i := range f.quarUntil {
		f.quarUntil[i] = make([]sim.Time, servers)
		f.strikes[i] = make([]int, servers)
	}
	return f
}

func (f *clientFaults) quarantine(client, srv int) {
	f.strikes[client][srv] = 0
	f.quarUntil[client][srv] = f.eng.Now().Add(f.quarFor)
	if f.onQuarantine != nil {
		f.onQuarantine(client, srv)
	}
}

// noteSilent records one unanswered inquiry; enough consecutive
// silences put the server on the client's quarantine list. Like
// noteAnswered and pollFault, it is a no-op on a healthy run's nil
// state, so the poll round carries no fault branch.
func (f *clientFaults) noteSilent(client, srv int) {
	if f == nil {
		return
	}
	f.strikes[client][srv]++
	if f.strikes[client][srv] >= faults.DefaultQuarantineAfter {
		f.quarantine(client, srv)
	}
}

func (f *clientFaults) noteAnswered(client, srv int) {
	if f == nil {
		return
	}
	f.strikes[client][srv] = 0
	f.quarUntil[client][srv] = 0
}

// candidates returns the servers of base this client has not
// quarantined, in scratch the next call overwrites.
//
//lint:noalloc
func (f *clientFaults) candidates(client int, base []int) []int {
	now := f.eng.Now()
	out := f.cands[:0]
	for _, srv := range base {
		if now >= f.quarUntil[client][srv] {
			out = append(out, srv)
		}
	}
	return out
}

// pollFault decides the fate of one inquiry on the client→srv link.
func (f *clientFaults) pollFault(client, srv int) (drop bool, delay sim.Duration) {
	if f == nil {
		return false, 0
	}
	rule, ok := f.sched.Rule(client, srv)
	if !ok {
		return false, 0
	}
	if rule.Loss > 0 && f.rng.Float64() < rule.Loss {
		return true, 0
	}
	return false, sim.FromSeconds(rule.Latency.Seconds())
}

// backoff returns the jittered wait before retry number attempt.
func (f *clientFaults) backoff(attempt int) sim.Duration {
	base := faults.Backoff(faults.DefaultRetryBackoff, attempt)
	jitter := 0.5 + f.rng.Float64()
	return sim.FromSeconds(base.Seconds() * jitter)
}
