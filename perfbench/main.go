// Command perfbench is the repository's access-path benchmark: one
// command that drives the simulator (internal/simcluster) and the
// prototype (internal/cluster over internal/transport) through their
// public APIs, and the HTTP front door (internal/gateway) in its
// traced runs, prints
// every end-to-end metric by name with its unit, checks that each
// run's outputs are correct, and exits non-zero when a check fails.
//
// Run it from the repository root through its wrapper, which builds it
// first:
//
//	bash perfbench/run.sh --workload mem_zero --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the workload untraced and reports the
// end-to-end metrics. With --trace 1 it measures the workload twice —
// untraced, then with a counting transport wrapper, a timing node
// handler and per-access bookkeeping — and runs a ladder of layer
// rungs (codec, transport, poll round, node RPC, client access,
// gateway over loopback TCP, simulator engine), reporting the
// per-layer metrics of
// catalog.go, a reconciliation row (ledger.*) and the tracing overhead.
// Every layer is timed from outside, in this package's own files.
//
// Definitions:
//
//   - setup_s is the median of several set-ups in the run: booting the
//     cluster (16 one-worker nodes and a Poll(3) client) up to a first
//     successful access, timed after untimed boots that bring the
//     process's heap to its steady size, or, for the simulator,
//     building the workload and generating a trace.
//   - The prototype workloads split their timed phase into ten equal
//     windows, and each end-to-end figure is the median over the
//     windows, so a burst of interference from outside the process
//     moves one window and not the run's figure. A window's
//     accesses_per_s is the delivered rate: the accesses that completed
//     in it. Its latencies are those of the accesses that started (open
//     loop: were due) in it. A warm-up precedes the timed phase.
//   - sim_fine reports simulated response times, and simulated accesses
//     per wall second as the median over segments of the chunks.
//   - peak_heap_mb is the Go heap's peak (live and unswept objects,
//     sampled every 5 ms): the median of the windows' peaks on the
//     prototype workloads, the whole run's peak on sim_fine.
//   - failed accesses and failed checks are the result line's failed
//     count, out of attempted; any failure makes the command exit 1.
//   - ledger.residual_frac is (end-to-end mean − sum of layer
//     self-times) ÷ end-to-end mean, with the self-times measured by
//     the rungs: poll round + node RPC for mem_zero; generator lag +
//     AccessInfo.PollTime + requested service + idle node RPC for
//     mem_fine90, whose residual is then mostly queueing; and events
//     per access × bare-engine ns per event for sim_fine.
//   - trace.overhead_frac is 1 − traced ÷ untraced accesses per second
//     (0 on sim_fine, where nothing is traced).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// run carries one invocation's settings and collects what it measures.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	nproc    int
	// tiny shrinks every workload for the self-test.
	tiny bool

	metrics   map[string]float64
	samples   map[string]int64 // sample count behind a percentile metric
	attempted int64
	failed    int64
	checks    []string // failed correctness checks
	env       map[string]any
}

func newRun(workload string, seed uint64, seconds float64, traced, tiny bool) *run {
	return &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		nproc:    runtime.NumCPU(),
		tiny:     tiny,
		metrics:  make(map[string]float64),
		samples:  make(map[string]int64),
		env:      make(map[string]any),
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setN records a metric together with the sample count behind it.
func (r *run) setN(name string, v float64, n int64) {
	r.metrics[name] = v
	r.samples[name] = n
}

// check records a failed correctness check; every failure counts
// toward the run's failed operations and makes the command exit
// non-zero.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
	r.failed++
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects the catalog's metric set for this run (end-to-end
// untraced, per-layer traced) and fails when one is missing or not a
// finite number.
func (r *run) report() (report, error) {
	specs := endToEnd
	if r.traced {
		specs = perLayer
	}
	out := report{
		Correct:   len(r.checks) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// printHuman writes every measured metric by name with its unit (and
// sample count where one applies) and the environment stamp.
func (r *run) printHuman(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := rep.Metrics[n]
		line := fmt.Sprintf("%-36s %16.6g %s", n, mv.Value, mv.Unit)
		if c, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Println(line)
	}
	for _, c := range r.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	env, _ := json.Marshal(r.env)
	fmt.Println("env", string(env))
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	commit := flag.String("commit", "none", "source commit to stamp the result with")
	flag.Parse()

	ws, ok := lookupWorkload(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := newRun(ws.Name, *seed, *seconds, *trace == 1, false)
	stampEnv(r, *commit)
	if err := ws.Run(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := r.report()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.printHuman(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
