package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/sim"
	"finelb/internal/simcluster"
	"finelb/internal/stats"
	"finelb/internal/transport"
	"finelb/internal/workload"
)

// The layer ladder: each rung drives one layer through its public
// seam, in isolation, and times it from here.

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// pollRung runs Client.PollRound — encode, fan-out, demux, decision,
// no service access — closed loop at the workload's concurrency, and
// returns the mean round time in microseconds.
func pollRung(r *run, f *fixture, dur time.Duration) (float64, error) {
	eps := f.client.Endpoints()
	infos := make([]cluster.AccessInfo, r.nproc)
	m0 := mallocs()
	loop := closedLoop(r.nproc, dur/10, dur, r.seed+11, func(c int, _ uint64, _ time.Time) error {
		info := &infos[c]
		*info = cluster.AccessInfo{PollRTTs: info.PollRTTs[:0]}
		if _, ok, err := f.client.PollRound(eps, info); err != nil || !ok {
			return fmt.Errorf("poll round: answered %v, err %v", ok, err)
		}
		return nil
	})
	allocs := mallocs() - m0
	if err := r.loopChecks("poll rung", loop); err != nil {
		return 0, err
	}
	r.setN("cluster.poll.round_us.p50", loop.lat.pctUs(0.5), int64(len(loop.lat.res)))
	r.setN("cluster.poll.round_us.p99", loop.lat.pctUs(0.99), int64(len(loop.lat.res)))
	r.set("cluster.poll.allocs_per_round", ratio(float64(allocs), float64(loop.ok+loop.failed)))
	return loop.lat.meanUs(), nil
}

// rpcRung runs Client.AccessNode — one service round trip to a fixed
// node, no poll — closed loop, spreading callers over the nodes, and
// returns the mean RPC time in microseconds. With the stamping handler
// installed it also sets the queue wait: dequeue instant − call start.
func rpcRung(r *run, f *fixture, dur time.Duration) (float64, error) {
	bufs := make([][]byte, r.nproc)
	waits := make([]*recorder, r.nproc)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
		waits[i] = newRecorder(r.seed + 300 + uint64(i))
	}
	before := f.served()
	loop := closedLoop(r.nproc, dur/10, dur, r.seed+12, func(c int, seq uint64, t0 time.Time) error {
		p := payloadFor(bufs[c], c, seq)
		info, err := f.client.AccessNode(int(seq+uint64(c)*7)%clusterNodes, 0, p)
		if err != nil {
			return err
		}
		if f.stamps != nil {
			waits[c].addNs(float64(f.stamps.deq[c].Load() - sinceEpoch(t0)))
		}
		return checkReply(info, p)
	})
	if err := r.loopChecks("rpc rung", loop); err != nil {
		return 0, err
	}
	after := f.served()
	r.check(after-before == loop.ok, "conservation: nodes served %d RPCs, callers completed %d", after-before, loop.ok)
	r.setN("cluster.node.rpc_us.p50", loop.lat.pctUs(0.5), int64(len(loop.lat.res)))
	if f.stamps != nil {
		w := newRecorder(0)
		for _, x := range waits {
			w.merge(x)
		}
		r.setN("cluster.node.queue_wait_us.p50", w.pctUs(0.5), w.n)
	}
	return loop.lat.meanUs(), nil
}

// timedLoop runs op in batches until dur has elapsed and returns the
// mean nanoseconds and allocations per op.
func timedLoop(dur time.Duration, op func() error) (nsPerOp, allocsPerOp float64, err error) {
	const batch = 256
	m0 := mallocs()
	start := time.Now()
	n := 0
	for time.Since(start) < dur {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		n += batch
	}
	elapsed := time.Since(start)
	return float64(elapsed) / float64(n), float64(mallocs()-m0) / float64(n), nil
}

// codecRungs time the protocol.go codecs: a request and its response
// framed through bufio over an in-memory buffer, and a load inquiry and
// its answer through the datagram codecs.
func codecRungs(r *run, dur time.Duration) error {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	rd := bufio.NewReader(&buf)
	payload := []byte("12345678")
	req := &cluster.Request{ID: 1, Service: serviceName, ServiceUs: 0, Payload: payload}
	resp := &cluster.Response{ID: 1, Status: cluster.StatusOK, Load: 3, Payload: payload}
	ns, allocs, err := timedLoop(dur, func() error {
		if err := cluster.WriteRequest(w, req); err != nil {
			return err
		}
		got, err := cluster.ReadRequest(rd)
		if err != nil {
			return err
		}
		if got.ID != req.ID || !bytes.Equal(got.Payload, payload) {
			return fmt.Errorf("codec: request did not round-trip")
		}
		if err := cluster.WriteResponse(w, resp); err != nil {
			return err
		}
		back, err := cluster.ReadResponse(rd)
		if err != nil {
			return err
		}
		if back.Load != resp.Load || !bytes.Equal(back.Payload, payload) {
			return fmt.Errorf("codec: response did not round-trip")
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("cluster.codec.request_rt_ns", ns)
	r.set("cluster.codec.request_allocs", allocs)

	dg := make([]byte, 0, 16)
	var seq uint32
	ns, allocs, err = timedLoop(dur, func() error {
		seq++
		dg = cluster.EncodeInquiry(dg, seq)
		s, err := cluster.DecodeInquiry(dg)
		if err != nil || s != seq {
			return fmt.Errorf("codec: inquiry did not round-trip: %v", err)
		}
		dg = cluster.EncodeLoad(dg, seq, 7)
		s, load, err := cluster.DecodeLoad(dg)
		if err != nil || s != seq || load != 7 {
			return fmt.Errorf("codec: load answer did not round-trip: %v", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("cluster.codec.datagram_rt_ns", ns)
	r.set("cluster.codec.datagram_allocs", allocs)
	return nil
}

// dgramRung ping-pongs one 9-byte datagram against an echo endpoint on
// tr — installed the way a node installs its inquiry handler, as a
// synchronous handler where the transport offers one and a read loop
// otherwise — and returns the mean round trip in microseconds.
func dgramRung(tr transport.Transport, dur time.Duration) (float64, error) {
	srv, err := tr.ListenPacket()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	echo := func(p []byte, from string) { _, _ = srv.WriteTo(p, from) }
	if hc, ok := srv.(transport.HandlerPacketConn); !ok || !hc.SetPacketHandler(echo) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				n, from, err := srv.ReadFrom(buf)
				if err != nil {
					return
				}
				echo(buf[:n], from)
			}
		}()
	}
	defer func() {
		_ = srv.Close()
		wg.Wait()
	}()
	c, err := tr.DialPacket(srv.LocalAddr(), transport.NoLink)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	out := []byte("123456789")
	in := make([]byte, 64)
	ns, _, err := timedLoop(dur, func() error {
		if _, err := c.Write(out); err != nil {
			return err
		}
		if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return err
		}
		n, err := c.Read(in)
		if err != nil {
			return fmt.Errorf("datagram echo: %w", err)
		}
		if !bytes.Equal(in[:n], out) {
			return fmt.Errorf("datagram echo: got %q", in[:n])
		}
		return nil
	})
	return ns / 1e3, err
}

// streamRung ping-pongs a 24-byte message over one stream connection
// on tr and returns the mean round trip in microseconds.
func streamRung(tr transport.Transport, dur time.Duration) (float64, error) {
	ln, err := tr.Listen()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 24)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	conn, err := tr.Dial(ln.Addr(), time.Second)
	if err != nil {
		_ = ln.Close()
		wg.Wait()
		return 0, err
	}
	defer func() {
		_ = conn.Close()
		_ = ln.Close()
		wg.Wait()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	out := []byte("0123456789abcdefghijklmn")
	in := make([]byte, len(out))
	ns, _, err := timedLoop(dur, func() error {
		if _, err := conn.Write(out); err != nil {
			return err
		}
		if _, err := io.ReadFull(conn, in); err != nil {
			return err
		}
		if !bytes.Equal(in, out) {
			return fmt.Errorf("stream echo: got %q", in)
		}
		return nil
	})
	return ns / 1e3, err
}

// transportRungs time both transports' datagram and stream planes.
func transportRungs(r *run, dur time.Duration) error {
	for _, t := range []struct {
		name string
		tr   transport.Transport
	}{
		{"mem", transport.NewMem(transport.MemConfig{Seed: r.seed})},
		{"net", transport.Net{}},
	} {
		us, err := dgramRung(t.tr, dur)
		if err != nil {
			return fmt.Errorf("%s datagram rung: %w", t.name, err)
		}
		r.set("transport.dgram_rt_us."+t.name, us)
		us, err = streamRung(t.tr, dur)
		if err != nil {
			return fmt.Errorf("%s stream rung: %w", t.name, err)
		}
		r.set("transport.stream_rt_us."+t.name, us)
	}
	return nil
}

// engineRung fires events through a bare sim.Engine holding a steady
// population of pending events — the event-loop cost every simulated
// access pays per event — and returns nanoseconds per event.
func engineRung(r *run, events int) float64 {
	const pending = 4096
	e := sim.New()
	rng := stats.NewRNG(r.seed)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+pending <= events {
			e.After(sim.Duration(1+rng.Intn(1000)), tick)
		}
	}
	for i := 0; i < pending; i++ {
		e.After(sim.Duration(1+rng.Intn(1000)), tick)
	}
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0)) / float64(e.Fired())
}

// simRung runs a small simulation of the sim_fine configuration for the
// prototype workloads' sim.* metrics.
func simRung(r *run) error {
	servers, accesses := 1000, 200000
	if r.tiny {
		servers, accesses = 100, 20000
	}
	cfg := simConfig(servers, make(workload.Trace, accesses), r.seed, nil)
	m0 := mallocs()
	t0 := time.Now()
	res, err := simcluster.Run(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	r.set("sim.events_per_s", float64(res.EventsFired)/wall.Seconds())
	r.set("sim.events_per_access", float64(res.EventsFired)/float64(accesses))
	r.set("sim.allocs_per_event", float64(mallocs()-m0)/float64(res.EventsFired))
	return nil
}

// simConfig is the sim_fine simulation: the Fine-Grain trace at 90 %
// load on servers servers under Poll(2), replayed from a trace the
// benchmark generates from seed into tr (the same accesses
// workload.Generate would return). tr must outlive the run. A non-nil
// prog stamps the run's progress.
func simConfig(servers int, tr workload.Trace, seed uint64, prog *progress) simcluster.Config {
	w := workload.FineGrain().ScaledTo(servers, simLoad)
	st := w.Stream(seed)
	for i := range tr {
		tr[i] = st.Next()
	}
	return simcluster.Config{
		Servers:  servers,
		Workload: replayWorkload(tr, w, prog),
		Policy:   core.NewPoll(2),
		Accesses: len(tr),
		Seed:     seed,
	}
}

const simLoad = 0.9

// replayWorkload turns a generated trace into the Workload the
// simulator draws from: its arrival intervals and service demands come
// back in trace order, so the simulator receives only the generated
// inputs. w supplies the distributions' moments.
func replayWorkload(tr workload.Trace, w workload.Workload, prog *progress) workload.Workload {
	return workload.Workload{
		Name:    w.Name + " (replayed)",
		Arrival: &traceColumn{tr: tr, arrival: true, of: w.Arrival, prog: prog},
		Service: &traceColumn{tr: tr, of: w.Service},
	}
}

// progress stamps the wall clock every every-th arrival drawn from a
// replayed trace. The simulator draws each arrival when the one before
// it fires, so the stamps time the run's progress through the trace.
type progress struct {
	every  int
	stamps []time.Time
}

// traceColumn replays one column of a trace as a stats.Dist.
type traceColumn struct {
	tr      workload.Trace
	arrival bool // inter-arrival intervals; otherwise service demands
	i       int
	of      stats.Dist
	prog    *progress // arrivals only; nil stamps nothing
}

func (c *traceColumn) Sample(*stats.RNG) float64 {
	i := c.i % len(c.tr)
	c.i++
	if !c.arrival {
		return c.tr[i].Service
	}
	if c.prog != nil && i%c.prog.every == 0 {
		c.prog.stamps = append(c.prog.stamps, time.Now())
	}
	if i == 0 {
		return c.tr[0].Arrival
	}
	return c.tr[i].Arrival - c.tr[i-1].Arrival
}

// Fork restarts the replay, as a fresh workload stream expects.
func (c *traceColumn) Fork() stats.Dist {
	return &traceColumn{tr: c.tr, arrival: c.arrival, of: c.of, prog: c.prog}
}

func (c *traceColumn) Mean() float64  { return c.of.Mean() }
func (c *traceColumn) Std() float64   { return c.of.Std() }
func (c *traceColumn) String() string { return "replay(" + c.of.String() + ")" }
