package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/gateway"
)

// accessOp returns a closed-loop op that performs one zero-service
// Client.Access with the caller's request-id payload and checks the
// reply: StatusOK, and the payload echoed back.
func accessOp(f *fixture, callers int, book *accessBook) callerFunc {
	bufs := make([][]byte, callers)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	return func(c int, seq uint64, t0 time.Time) error {
		p := payloadFor(bufs[c], c, seq)
		info, err := f.client.Access(0, p)
		if err != nil {
			return err
		}
		if book != nil {
			book.note(c, info, time.Since(t0), 0)
		}
		return checkReply(info, p)
	}
}

func checkReply(info *cluster.AccessInfo, payload []byte) error {
	if info.Resp.Status != cluster.StatusOK {
		return fmt.Errorf("access: status %d", info.Resp.Status)
	}
	if !bytes.Equal(info.Resp.Payload, payload) {
		return fmt.Errorf("access: reply payload %x does not echo %x", info.Resp.Payload, payload)
	}
	return nil
}

// accessBook gathers the public AccessInfo fields of every access in a
// traced phase, one slot per caller (open-loop phases share slot 0
// under the book's lock).
type accessBook struct {
	mu    sync.Mutex
	slots []bookSlot
}

type bookSlot struct {
	n, retries, polled, answered int64
	pollNs, serviceNs            float64
	access                       *recorder // Client.Access duration, from its call
	rtt                          *recorder // individual poll round trips
	queueWait                    *recorder // access − poll − requested service (service workloads only)
	_                            [64]byte  // keep callers' slots on separate cache lines
}

func newBookSlot(seed uint64) bookSlot {
	return bookSlot{access: newRecorder(seed), rtt: newRecorder(seed + 1), queueWait: newRecorder(seed + 2)}
}

func newAccessBook(callers int, seed uint64) *accessBook {
	b := &accessBook{slots: make([]bookSlot, callers)}
	for i := range b.slots {
		b.slots[i] = newBookSlot(seed + 100 + uint64(i)*3)
	}
	return b
}

// note records one access that took took from its start; service is
// its requested service time, from which the queue wait is derived
// when positive.
func (b *accessBook) note(c int, info *cluster.AccessInfo, took, service time.Duration) {
	s := &b.slots[c]
	s.n++
	s.retries += int64(info.Retries)
	s.polled += int64(info.Polled)
	s.answered += int64(info.Answered)
	s.pollNs += float64(info.PollTime)
	s.serviceNs += float64(service)
	s.access.add(took)
	for _, rtt := range info.PollRTTs {
		s.rtt.add(rtt)
	}
	if service > 0 {
		s.queueWait.add(took - info.PollTime - service)
	}
}

// total merges every slot.
func (b *accessBook) total() bookSlot {
	t := newBookSlot(0)
	for i := range b.slots {
		s := &b.slots[i]
		t.n += s.n
		t.retries += s.retries
		t.polled += s.polled
		t.answered += s.answered
		t.pollNs += s.pollNs
		t.serviceNs += s.serviceNs
		t.access.merge(s.access)
		t.rtt.merge(s.rtt)
		t.queueWait.merge(s.queueWait)
	}
	return t
}

// phaseTrace is what the traced access phase measured beyond its
// loopResult.
type phaseTrace struct {
	loop *loopResult
	span spanResult
	book bookSlot
}

// tracedAccessPhase runs the closed-loop Client.Access workload on a
// traced fixture and sets the cluster.client, cluster.poll (answers),
// cluster.node (balance and counts) and transport count metrics.
func tracedAccessPhase(r *run, f *fixture, warm, dur time.Duration) (*phaseTrace, error) {
	book := newAccessBook(r.nproc, r.seed)
	before := f.nodeTotals()
	perBefore := f.servedPerNode()
	counts := f.counts.snapshot()
	late := f.client.LateAnswers()
	span := beginSpan()
	loop := closedLoop(r.nproc, warm, dur, r.seed, accessOp(f, r.nproc, book))
	sp := span.end()
	if err := r.loopChecks("traced access phase", loop); err != nil {
		return nil, err
	}
	pt := &phaseTrace{loop: loop, span: sp, book: book.total()}
	r.setAccessBook(pt.book, sp, loop.ok+loop.failed)
	r.setNodeAndTransport(f, before, perBefore, counts, late, loop.ok)
	return pt, nil
}

// setAccessBook sets the Client.Access metrics of a traced phase:
// allocations from the span (whole process, per access issued) and the
// rest from the book.
func (r *run) setAccessBook(b bookSlot, sp spanResult, ops int64) {
	r.setN("cluster.client.access_us.p50", b.access.pctUs(0.5), int64(len(b.access.res)))
	r.setN("cluster.client.access_us.p99", b.access.pctUs(0.99), int64(len(b.access.res)))
	r.set("cluster.client.allocs_per_access", ratio(float64(sp.mallocs), float64(ops)))
	r.set("cluster.client.bytes_per_access", ratio(float64(sp.bytes), float64(ops)))
	r.set("cluster.client.retries_per_access", ratio(float64(b.retries), float64(b.n)))
	r.set("cluster.client.poll_share", ratio(b.pollNs, b.access.sum))
	r.setN("cluster.poll.rtt_us.p50", b.rtt.pctUs(0.5), b.rtt.n)
	r.set("cluster.poll.answered_frac", ratio(float64(b.answered), float64(b.polled)))
}

// setNodeAndTransport sets the cluster.node counts and transport
// counts accumulated since the given snapshots, per successful access.
func (r *run) setNodeAndTransport(f *fixture, before nodeTotals, perBefore []float64, counts countSnapshot, late int64, accesses int64) {
	after := f.nodeTotals()
	perAfter := f.servedPerNode()
	per := make([]float64, len(perAfter))
	for i := range per {
		per[i] = perAfter[i] - perBefore[i]
	}
	r.check(after.served-before.served == accesses,
		"conservation: nodes served %d accesses, callers completed %d", after.served-before.served, accesses)
	r.set("cluster.node.served_cv", cv(per))
	r.set("cluster.node.overloads", float64(after.overloads-before.overloads))
	r.set("cluster.node.inquiries_per_access", ratio(float64(after.inquiries-before.inquiries), float64(accesses)))
	r.set("cluster.poll.late_answers", float64(f.client.LateAnswers()-late))
	d := f.counts.snapshot().sub(counts)
	r.set("transport.datagrams_per_access", ratio(float64(d.datagrams), float64(accesses)))
	r.set("transport.stream_writes_per_access", ratio(float64(d.streamWrites), float64(accesses)))
	r.set("transport.bytes_per_access", ratio(float64(d.bytes), float64(accesses)))
	r.set("transport.dials", float64(f.counts.dials.Load()))
}

// loopChecks folds a phase's access outcomes into the run: every
// access counts as attempted, every failure as failed, and a failure
// is a failed correctness check.
func (r *run) loopChecks(what string, l *loopResult) error {
	r.attempted += l.ok + l.failed
	r.failed += l.failed
	if l.failed > 0 {
		r.checks = append(r.checks, fmt.Sprintf("%s: %d of %d accesses failed (first: %v)", what, l.failed, l.ok+l.failed, l.firstErr))
	}
	if l.timed == 0 {
		return fmt.Errorf("%s: no access completed in the timed window", what)
	}
	return nil
}

// setRuntime sets the runtime metrics of the phase that defines the
// workload.
func (r *run) setRuntime(sp spanResult) {
	r.set("runtime.cpu_util", sp.cpuUtil)
	r.set("runtime.gc_cpu_frac", sp.gcFrac)
	r.set("runtime.sched_lat_p99_us", sp.schedP99us)
}

// setLoadgen sets the generator metrics of a load-generation phase.
func (r *run) setLoadgen(l *loopResult) {
	r.setN("loadgen.lag_p99_us", l.lag.pctUs(0.99), l.lag.n)
	r.set("loadgen.inflight_max", float64(l.inflightMax))
}

// gatewayOp returns a closed-loop op that POSTs one zero-service
// /access with the caller's request-id body over a keep-alive
// connection and checks the reply: 200 and an AccessReply naming a
// server of the cluster.
func gatewayOp(f *fixture, callers int) callerFunc {
	bufs := make([][]byte, callers)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	return func(c int, seq uint64, _ time.Time) error {
		body := bytes.NewReader(payloadFor(bufs[c], c, seq))
		resp, err := f.http.Post(f.url, "application/octet-stream", body)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return fmt.Errorf("gateway: status %d (%s)", resp.StatusCode, resp.Header.Get("X-Gateway-Reject"))
		}
		var reply gateway.AccessReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return fmt.Errorf("gateway: reply: %w", err)
		}
		if reply.Server < 0 || reply.Server >= clusterNodes || reply.Tenant != tenantName {
			return fmt.Errorf("gateway: reply %+v names no server of the cluster", reply)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
}

// gatewayPhase runs the closed-loop HTTP workload and checks that the
// nodes served exactly the successful requests.
func gatewayPhase(r *run, f *fixture, warm, dur time.Duration) (*loopResult, spanResult, error) {
	before := f.served()
	span := beginSpan()
	loop := closedLoop(r.nproc, warm, dur, r.seed, gatewayOp(f, r.nproc))
	sp := span.end()
	if err := r.loopChecks("gateway phase", loop); err != nil {
		return nil, sp, err
	}
	after := f.served()
	r.check(after-before == loop.ok, "conservation: nodes served %d requests, gateway answered %d", after-before, loop.ok)
	return loop, sp, nil
}

// setGateway sets the gateway metrics from a traced HTTP phase and the
// Client.Access p50 measured at the same concurrency on the same
// cluster.
func (r *run) setGateway(f *fixture, l *loopResult, sp spanResult, accessP50us float64) {
	p50 := l.lat.pctUs(0.5)
	r.setN("gateway.http_us.p50", p50, l.lat.n)
	r.set("gateway.self_us.p50", p50-accessP50us)
	r.set("gateway.allocs_per_req", ratio(float64(sp.mallocs), float64(l.ok+l.failed)))
	m := f.gw.Metrics()
	rejected := m.RejectedRate.Value() + m.RejectedAdmission.Value() + m.Overloads.Value() + m.UnknownTenant.Value()
	r.set("gateway.reject_frac", ratio(float64(rejected), float64(m.Requests.Value())))
}

// setEndToEnd sets the end-to-end metrics of a timed phase: each is
// the median over the phase's windows of that window's figure.
func (r *run) setEndToEnd(l *loopResult, peakMB float64) {
	rates := l.windowRates()
	r.set("accesses_per_s", median(rates))
	r.setN("access_mean_us", l.windowMedian((*recorder).meanUs), l.lat.n)
	r.setN("access_p50_us", l.windowMedian(func(w *recorder) float64 { return w.pctUs(0.5) }), l.lat.n)
	r.setN("access_p90_us", l.windowMedian(func(w *recorder) float64 { return w.pctUs(0.9) }), l.lat.n)
	r.set("peak_heap_mb", peakMB)
	r.env["windows"] = windowsPerPhase
	r.env["window_rate_spread"] = spread(rates)
	r.env["samples"] = l.lat.n
	r.env["lag_p99_us"] = l.lag.pctUs(0.99)
	r.env["phase_accesses_per_s"] = l.accessesPerS()
	r.env["phase_mean_us"] = l.lat.meanUs()
	// The 99th percentile is printed but not gated: on loopback sockets
	// it sits on the knee of a tail of scheduler-tick wake-ups whose
	// share moves with the host's load, not with the program.
	r.env["access_p99_us"] = l.windowMedian(func(w *recorder) float64 { return w.pctUs(0.99) })
	r.env["inflight_max"] = l.inflightMax
}
