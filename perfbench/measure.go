package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"finelb/internal/stats"
)

// reservoirSize bounds the latency samples one recorder keeps, so the
// benchmark's own memory does not grow with the program's throughput
// (which would move peak_heap_mb for the wrong reason).
const reservoirSize = 1 << 16

// recorder accumulates durations: an exact count and sum, and a
// uniform reservoir sample for percentiles. It is not safe for
// concurrent use; closed-loop callers each own one and merge at the end.
type recorder struct {
	n   int64
	sum float64 // ns
	res []float64
	rng *stats.RNG
}

func newRecorder(seed uint64) *recorder { return newRecorderCap(seed, reservoirSize) }

func newRecorderCap(seed uint64, size int) *recorder {
	return &recorder{res: make([]float64, 0, size), rng: stats.NewRNG(seed)}
}

func (r *recorder) add(d time.Duration) { r.addNs(float64(d)) }

func (r *recorder) addNs(ns float64) {
	r.n++
	r.sum += ns
	if len(r.res) < cap(r.res) {
		r.res = append(r.res, ns)
	} else if j := r.rng.Intn(int(r.n)); j < len(r.res) {
		r.res[j] = ns
	}
}

func (r *recorder) merge(o *recorder) {
	r.n += o.n
	r.sum += o.sum
	r.res = append(r.res, o.res...)
}

// meanUs is the exact mean in microseconds (0 without samples).
func (r *recorder) meanUs() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n) / 1e3
}

// pctUs is the p-quantile of the sample in microseconds.
func (r *recorder) pctUs(p float64) float64 { return quantile(r.res, p) / 1e3 }

// quantile interpolates linearly between order statistics; xs is
// sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	m := quantile(c, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(c, 0.75) - quantile(c, 0.25)) / m
}

func cv(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return math.Sqrt(sq/float64(len(xs))) / mean
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapPeak samples the Go heap (live plus not-yet-swept objects) every
// few milliseconds between start and stop.
type heapPeak struct {
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.samples = append(h.samples, heapSample{time.Now(), sample[0].Value.Uint64()})
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// MB stops the sampler and returns the peak in MiB.
func (h *heapPeak) MB() float64 {
	h.end()
	var peak uint64
	for _, s := range h.samples {
		peak = max(peak, s.bytes)
	}
	return float64(peak) / (1 << 20)
}

// windowMB stops the sampler and returns the median over l's windows
// of each window's peak, in MiB: the heap's top is set by when the
// collector happens to run, so one window's peak is not the run's.
func (h *heapPeak) windowMB(l *loopResult) float64 {
	h.end()
	peaks := make([]float64, windowsPerPhase)
	for _, s := range h.samples {
		if i := windowIndex(s.at.Sub(l.start), l.window); i >= 0 {
			peaks[i] = max(peaks[i], float64(s.bytes)/(1<<20))
		}
	}
	return median(peaks)
}

func (h *heapPeak) end() {
	close(h.stop)
	<-h.done
}

// runtimeSpan measures process CPU, GC CPU, scheduling latency and
// allocation counts between begin and end.
type runtimeSpan struct {
	wall    time.Time
	cpu     time.Duration
	samples []metrics.Sample
	mem     runtime.MemStats
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func beginSpan() *runtimeSpan {
	s := &runtimeSpan{samples: make([]metrics.Sample, len(runtimeMetricNames))}
	for i, n := range runtimeMetricNames {
		s.samples[i].Name = n
	}
	metrics.Read(s.samples)
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	s.wall = time.Now()
	return s
}

// spanResult is what a runtimeSpan measured.
type spanResult struct {
	wall       time.Duration
	cpuUtil    float64 // process CPU ÷ (wall × nproc)
	gcFrac     float64 // GC CPU ÷ total CPU available to the Go scheduler
	schedP99us float64
	mallocs    uint64
	bytes      uint64
}

func (s *runtimeSpan) end() spanResult {
	wall := time.Since(s.wall)
	cpu := processCPU() - s.cpu
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	now := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		now[i].Name = n
	}
	metrics.Read(now)
	out := spanResult{
		wall:    wall,
		cpuUtil: cpu.Seconds() / (wall.Seconds() * float64(runtime.NumCPU())),
		mallocs: mem.Mallocs - s.mem.Mallocs,
		bytes:   mem.TotalAlloc - s.mem.TotalAlloc,
	}
	gc := now[0].Value.Float64() - s.samples[0].Value.Float64()
	total := now[1].Value.Float64() - s.samples[1].Value.Float64()
	out.gcFrac = ratio(gc, total)
	out.schedP99us = histDeltaQuantile(s.samples[2].Value.Float64Histogram(), now[2].Value.Float64Histogram(), 0.99) * 1e6
	return out
}

// histDeltaQuantile is the q-quantile of the observations added to a
// runtime/metrics histogram between two reads, interpolated linearly
// by rank inside the bucket that holds it.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var acc float64
	for i, c := range delta {
		if c == 0 || acc+float64(c) < want {
			acc += float64(c)
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		if math.IsInf(lo, -1) {
			return hi
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(want-acc)/float64(c)
	}
	return after.Buckets[len(after.Buckets)-1]
}

// stampEnv records what the result depends on besides the code: the
// machine, the toolchain, the source and the run's settings.
func stampEnv(r *run, commit string) {
	r.env["workload"] = r.workload
	r.env["seed"] = r.seed
	r.env["seconds"] = r.seconds
	r.env["trace"] = r.traced
	r.env["nproc"] = runtime.NumCPU()
	r.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.env["cpu_model"] = cpuModel()
	r.env["go_version"] = runtime.Version()
	r.env["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	r.env["git_commit"] = commit
	r.env["source_sha256"] = sourceDigest(".")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root (build
// output excluded), naming the source when the checkout is not a git
// repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
