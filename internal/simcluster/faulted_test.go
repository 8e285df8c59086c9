package simcluster

import (
	"reflect"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/workload"
)

// degradedSchedule kills 2 of n servers partway through a run with 5%
// poll loss everywhere — the canned degraded-mode scenario.
func degradedSchedule(n int, at time.Duration) *faults.Schedule {
	return faults.DegradedDemo(n, 2, at, 0.05, 99)
}

func TestFaultedRejectsBroadcast(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.5)
	_, err := Run(Config{
		Servers: 4, Workload: w,
		Policy: core.NewBroadcast(100 * time.Millisecond),
		Faults: &faults.Schedule{},
	})
	if err == nil {
		t.Fatal("Broadcast with Faults accepted")
	}
}

func TestFaultedCrashCompletesAndRedistributes(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.5)
	res := run(t, Config{
		Servers: 8, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 20000, Seed: 11,
		Faults: degradedSchedule(8, 10*time.Second),
	})
	if res.Lost != 0 {
		t.Fatalf("lost %d accesses; quarantine+retry should save them all", res.Lost)
	}
	if res.Retries == 0 {
		t.Fatal("a crash run must record retries")
	}
	// The dead servers stop serving; the survivors absorb the load and
	// the run still terminates with every access accounted for.
	if res.ServerUtilization[0] >= res.ServerUtilization[7] {
		t.Fatalf("crashed server 0 busier than surviving server 7: %.3f vs %.3f",
			res.ServerUtilization[0], res.ServerUtilization[7])
	}
}

func TestFaultedDeterminism(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.5)
	cfg := Config{
		Servers: 8, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 8000, Seed: 12,
		Faults: degradedSchedule(8, 5*time.Second),
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Response.Mean() != b.Response.Mean() ||
		a.Lost != b.Lost || a.Retries != b.Retries ||
		a.Messages != b.Messages {
		t.Fatalf("same schedule + seed diverged:\n%+v\n%+v", a.Messages, b.Messages)
	}
	// A different fault seed must actually change the fault draws.
	cfg.Faults = faults.DegradedDemo(8, 2, 5*time.Second, 0.05, 100)
	c := run(t, cfg)
	if a.Messages == c.Messages {
		t.Fatal("different fault seed produced identical message counts")
	}
}

func TestFaultedPauseResumeLosesNothing(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.5)
	res := run(t, Config{
		Servers: 4, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 10000, Seed: 13,
		Faults: &faults.Schedule{
			Seed: 5,
			Events: []faults.NodeEvent{
				{At: 5 * time.Second, Node: 0, Kind: faults.Pause},
				{At: 8 * time.Second, Node: 0, Kind: faults.Resume},
			},
		},
	})
	// A pause stalls work but breaks no connections: everything queued
	// on the paused server completes after resume.
	if res.Lost != 0 {
		t.Fatalf("pause/resume lost %d accesses", res.Lost)
	}
}

func TestFaultedTotalPollLossStillCompletes(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.4)
	res := run(t, Config{
		Servers: 4, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 3000, Seed: 14,
		Faults: &faults.Schedule{
			Seed:  6,
			Links: []faults.LinkRule{{Client: -1, Server: -1, Loss: 1.0}},
		},
	})
	if res.Messages.PollResponses != 0 {
		t.Fatalf("total loss yet %d poll answers", res.Messages.PollResponses)
	}
	// Every access still dispatches via the random fallback.
	if res.Lost != 0 {
		t.Fatalf("lost %d accesses under pure poll loss (service path is healthy)", res.Lost)
	}
	if res.Response.N() == 0 {
		t.Fatal("no responses recorded")
	}
}

func TestFaultedLinkLatencyDiscards(t *testing.T) {
	// 20ms extra one-way latency pushes every answer past a 10ms
	// discard threshold: all polls discard, accesses fall back.
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.4)
	res := run(t, Config{
		Servers: 4, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 2000, Seed: 15,
		Faults: &faults.Schedule{
			Seed:  7,
			Links: []faults.LinkRule{{Client: -1, Server: -1, Latency: 20 * time.Millisecond}},
		},
	})
	if res.Messages.PollResponses != 0 {
		t.Fatalf("delayed answers should all miss the deadline, got %d", res.Messages.PollResponses)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d accesses", res.Lost)
	}
}

func TestEmptyScheduleBitIdenticalToHealthy(t *testing.T) {
	// An inert schedule (no events, no links) takes the healthy fast
	// path: with the unified runner the results are not merely close but
	// bit-identical, draw for draw.
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.6)
	healthy := run(t, Config{
		Servers: 8, Workload: w,
		Policy:   core.NewPollDiscard(3, 10*time.Millisecond),
		Accesses: 20000, Seed: 16,
	})
	faulted := run(t, Config{
		Servers: 8, Workload: w,
		Policy:   core.NewPollDiscard(3, 10*time.Millisecond),
		Accesses: 20000, Seed: 16,
		Faults: &faults.Schedule{Seed: 1},
	})
	if faulted.Lost != 0 || faulted.Retries != 0 {
		t.Fatalf("empty schedule caused lost=%d retries=%d", faulted.Lost, faulted.Retries)
	}
	if healthy.MeanResponse() != faulted.MeanResponse() ||
		healthy.Response.Percentile(0.99) != faulted.Response.Percentile(0.99) ||
		healthy.Messages != faulted.Messages ||
		healthy.MeanQueueLength != faulted.MeanQueueLength ||
		healthy.SimDuration != faulted.SimDuration {
		t.Fatalf("empty-schedule run diverged from healthy:\n%+v\nvs\n%+v",
			faulted.Messages, healthy.Messages)
	}
}

// TestHarmlessFaultScheduleMatchesHealthy: a schedule that is active
// (so the run carries fault state) but never drops or delays an
// inquiry reproduces the healthy run bit for bit, events included —
// the poll round is one round, not a healthy and a fault-aware copy.
func TestHarmlessFaultScheduleMatchesHealthy(t *testing.T) {
	w := workload.PoissonExp(workload.PoissonExpServiceMean).ScaledTo(16, 0.8)
	for _, pol := range []core.Policy{
		core.NewPoll(2), core.NewPollDiscard(3, 10*time.Millisecond), core.NewPoll(8),
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := Config{Servers: 16, Workload: w, Policy: pol, Accesses: 12000, Seed: seed}
			healthy := run(t, cfg)
			cfg.Faults = &faults.Schedule{Seed: 5, Links: []faults.LinkRule{{Client: -1, Server: -1}}}
			harmless := run(t, cfg)
			h, f := digestOf(pol.String(), seed, healthy), digestOf(pol.String(), seed, harmless)
			if !reflect.DeepEqual(h, f) {
				t.Errorf("%s seed %d: harmless schedule diverged from healthy\n got %+v\nwant %+v", pol, seed, f, h)
			}
			if hd, fd := healthy.Metrics.Digest(), harmless.Metrics.Digest(); hd != fd {
				t.Errorf("%s seed %d: metrics digest %s, healthy %s", pol, seed, fd, hd)
			}
		}
	}
}
