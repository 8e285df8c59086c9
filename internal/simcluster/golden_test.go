package simcluster

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/workload"
)

// The golden-seed regression harness pins the runner's exact output.
// The first 3 seeds x 3 workloads were captured on the pre-unification
// healthy path (commit 81fd25e) and the fault-aware runner must
// reproduce them bit for bit. The cases after them pin every other
// policy on the fixed pool, under a crash + pause/resume + lossy-link
// fault schedule, and on an elastic pool (scheduled Join/Drain/Leave
// churn and one autoscaled run), so a refactor of the dispatch path is
// held to the same draws on every kind of run. Regenerate deliberately
// with
//
//	go test ./internal/simcluster -run TestGoldenSeeds -update-golden
//
// only when an intentional model change is being made, and say so in
// the commit message.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current runner")

const goldenPath = "testdata/golden.json"

// goldenDigest is the full-precision fingerprint of one run. Floats
// survive the JSON round trip exactly (shortest-round-trip encoding),
// so == comparisons below are bit-level.
type goldenDigest struct {
	Case string `json:"case"`
	Seed uint64 `json:"seed"`

	MeanResponse    float64      `json:"mean_response"`
	P50Response     float64      `json:"p50_response"`
	P95Response     float64      `json:"p95_response"`
	P99Response     float64      `json:"p99_response"`
	ResponseN       int64        `json:"response_n"`
	PollTimeMean    float64      `json:"poll_time_mean"`
	PollTimeN       int64        `json:"poll_time_n"`
	Messages        MessageCount `json:"messages"`
	Utilization     []float64    `json:"utilization"`
	MeanQueueLength float64      `json:"mean_queue_length"`
	SimDuration     float64      `json:"sim_duration"`
	Lost            int64        `json:"lost"`
	Retries         int64        `json:"retries"`
	EventsFired     uint64       `json:"events_fired"`
	// Pool pins membership churn; nil on fixed-pool runs.
	Pool *poolDigest `json:"pool,omitempty"`
}

type poolDigest struct {
	Joins     int64 `json:"joins"`
	Drains    int64 `json:"drains"`
	Leaves    int64 `json:"leaves"`
	FinalPool int   `json:"final_pool"`
	PeakPool  int   `json:"peak_pool"`
}

func digestOf(name string, seed uint64, res *Result) goldenDigest {
	d := goldenDigest{
		Case:            name,
		Seed:            seed,
		MeanResponse:    res.Response.Mean(),
		P50Response:     res.Response.Percentile(0.50),
		P95Response:     res.Response.Percentile(0.95),
		P99Response:     res.Response.Percentile(0.99),
		ResponseN:       res.Response.N(),
		PollTimeMean:    res.PollTime.Mean(),
		PollTimeN:       res.PollTime.N(),
		Messages:        res.Messages,
		Utilization:     res.ServerUtilization,
		MeanQueueLength: res.MeanQueueLength,
		SimDuration:     res.SimDuration,
		Lost:            res.Lost,
		Retries:         res.Retries,
		EventsFired:     res.EventsFired,
	}
	if res.Config.elastic() {
		d.Pool = &poolDigest{res.Joins, res.Drains, res.Leaves, res.FinalPool, res.PeakPool}
	}
	return d
}

// goldenFaults crashes one server, pauses and resumes another, and
// loses 5% of load inquiries on every link.
func goldenFaults() *faults.Schedule {
	return &faults.Schedule{
		Seed: 21,
		Events: []faults.NodeEvent{
			{At: 8 * time.Second, Node: 3, Kind: faults.Crash},
			{At: 12 * time.Second, Node: 5, Kind: faults.Pause},
			{At: 15 * time.Second, Node: 5, Kind: faults.Resume},
		},
		Links: []faults.LinkRule{{Client: -1, Server: -1, Loss: 0.05}},
	}
}

// goldenChurn grows the 16-server pool by two, drains and retires one
// original server, drains a joined one, and brings the retired server
// back.
func goldenChurn() *membership.Schedule {
	return &membership.Schedule{Events: []membership.Event{
		{At: 5 * time.Second, Node: 16, Kind: membership.Join},
		{At: 5 * time.Second, Node: 17, Kind: membership.Join},
		{At: 10 * time.Second, Node: 3, Kind: membership.Drain},
		{At: 20 * time.Second, Node: 3, Kind: membership.Leave},
		{At: 25 * time.Second, Node: 16, Kind: membership.Drain},
		{At: 30 * time.Second, Node: 3, Kind: membership.Join},
	}}
}

type goldenCase struct {
	name string
	cfg  Config // Seed is set per run
}

// goldenCases lists the pinned runs. The first three are the poll
// variants whose decision path the fault-aware unification touched
// most (plain polling, slow-poll discard, poll-all); their order and
// configuration must not change.
func goldenCases() []goldenCase {
	fixed := func(w workload.Workload, pol core.Policy) Config {
		return Config{Servers: 16, Workload: w, Policy: pol, Accesses: 12000}
	}
	pe := workload.PoissonExp(workload.PoissonExpServiceMean).ScaledTo(16, 0.8)
	cases := []goldenCase{
		{"poissonexp-poll2", fixed(pe, core.NewPoll(2))},
		{"mediumgrain-poll3discard", fixed(workload.MediumGrain().ScaledTo(16, 0.8), core.NewPollDiscard(3, 10*time.Millisecond))},
		{"finegrain-poll8", fixed(workload.FineGrain().ScaledTo(16, 0.8), core.NewPoll(8))},
	}
	for _, pol := range []core.Policy{
		core.NewRandom(), core.NewRoundRobin(), core.NewIdeal(), core.NewLocalLeast(),
		core.NewBroadcast(10 * time.Millisecond),
	} {
		cases = append(cases, goldenCase{"fixed-" + pol.String(), fixed(pe, pol)})
	}
	for _, pol := range []core.Policy{
		core.NewRandom(), core.NewRoundRobin(), core.NewIdeal(), core.NewLocalLeast(),
		core.NewPollDiscard(2, 10*time.Millisecond),
	} {
		cfg := fixed(pe, pol)
		cfg.Faults = goldenFaults()
		cases = append(cases, goldenCase{"faulted-" + pol.String(), cfg})
	}
	for _, pol := range []core.Policy{
		core.NewRandom(), core.NewRoundRobin(), core.NewIdeal(), core.NewLocalLeast(), core.NewPoll(2),
	} {
		cfg := fixed(pe, pol)
		cfg.Membership = goldenChurn()
		cases = append(cases, goldenCase{"churn-" + pol.String(), cfg})
	}
	cases = append(cases, goldenCase{"autoscaled-poll2", Config{
		Servers: 4, Policy: core.NewPoll(2), Accesses: 12000,
		Workload: workload.PoissonExp(workload.PoissonExpServiceMean).ScaledTo(4, 0.95).WithDiurnalArrivals(0.9, 100),
		Autoscaler: &membership.AutoscalerConfig{
			Min: 2, Max: 8,
			ScaleUpAt: 3, ScaleDownAt: 0.5,
			ScaleUpCooldown: 2 * time.Second, ScaleDownCooldown: 5 * time.Second,
			Interval: 250 * time.Millisecond,
		},
	}})
	return cases
}

var goldenSeeds = []uint64{1, 2, 3}

func runGolden(t *testing.T) []goldenDigest {
	t.Helper()
	var out []goldenDigest
	for _, c := range goldenCases() {
		for _, seed := range goldenSeeds {
			cfg := c.cfg
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			out = append(out, digestOf(c.name, seed, res))
		}
	}
	return out
}

func TestGoldenSeeds(t *testing.T) {
	got := runGolden(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update-golden to capture): %v", err)
	}
	var want []goldenDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d digests, harness produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Case != w.Case || g.Seed != w.Seed {
			t.Fatalf("digest %d is %s/%d, want %s/%d (case list changed without -update-golden?)",
				i, g.Case, g.Seed, w.Case, w.Seed)
		}
		if g.MeanResponse != w.MeanResponse || g.P50Response != w.P50Response ||
			g.P95Response != w.P95Response || g.P99Response != w.P99Response ||
			g.ResponseN != w.ResponseN ||
			g.PollTimeMean != w.PollTimeMean || g.PollTimeN != w.PollTimeN ||
			g.Messages != w.Messages ||
			g.MeanQueueLength != w.MeanQueueLength || g.SimDuration != w.SimDuration ||
			g.Lost != w.Lost || g.Retries != w.Retries ||
			g.EventsFired != w.EventsFired ||
			(g.Pool == nil) != (w.Pool == nil) || (g.Pool != nil && *g.Pool != *w.Pool) {
			t.Errorf("%s seed %d: run is no longer bit-identical\n got %+v\nwant %+v",
				w.Case, w.Seed, g, w)
			continue
		}
		if len(g.Utilization) != len(w.Utilization) {
			t.Errorf("%s seed %d: utilization length %d vs %d", w.Case, w.Seed, len(g.Utilization), len(w.Utilization))
			continue
		}
		for s := range g.Utilization {
			if g.Utilization[s] != w.Utilization[s] {
				t.Errorf("%s seed %d: server %d utilization %v, want %v",
					w.Case, w.Seed, s, g.Utilization[s], w.Utilization[s])
			}
		}
	}
}
