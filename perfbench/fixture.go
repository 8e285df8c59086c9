package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/gateway"
	"finelb/internal/transport"
)

const (
	clusterNodes = 16
	clientPoll   = 3
	serviceName  = "bench"
	tenantName   = "bench"
)

// epoch anchors the nanosecond stamps the timing handler and the
// callers exchange.
var epoch = time.Now()

func sinceEpoch(t time.Time) int64 { return int64(t.Sub(epoch)) }

// fixtureConfig describes one prototype cluster: 16 one-worker nodes
// and one Poll(3) client on a fresh mem fabric, or on loopback sockets
// fronted by the gateway. The nodes run with the load-inquiry contention model off:
// its randomly delayed answers (tens of ms) would dominate every
// figure's run-to-run spread.
type fixtureConfig struct {
	net     bool // transport.Net fronted by the gateway, instead of a fresh transport.Mem
	traced  bool // counting transport wrapper
	stamp   bool // dequeue-stamping handler (zero-service workloads only)
	callers int
	seed    uint64
}

// fixture is a running prototype cluster.
type fixture struct {
	base   transport.Transport // the fabric itself (gateway traffic uses it directly)
	tr     transport.Transport // what nodes and the client use: base, or the counting wrapper
	counts *transportCounts    // nil unless traced
	nodes  []*cluster.Node
	client *cluster.Client
	stamps *stampHandler // nil unless stamping
	gw     *gateway.Gateway
	http   *http.Client
	httpTr *http.Transport
	url    string
}

// stampHandler is a zero-service NodeConfig.Handler that echoes the
// request and records, per caller, the instant a worker dequeued it.
// Callers put their index in the top 16 bits of the 8-byte payload.
type stampHandler struct {
	deq []atomic.Int64
}

func (h *stampHandler) Serve(req *cluster.Request) ([]byte, uint8) {
	if len(req.Payload) == 8 {
		if i := int(binary.LittleEndian.Uint64(req.Payload) >> 48); i < len(h.deq) {
			h.deq[i].Store(sinceEpoch(time.Now()))
		}
	}
	return req.Payload, cluster.StatusOK
}

// payloadFor builds a caller's 8-byte request-id payload.
func payloadFor(buf []byte, caller int, seq uint64) []byte {
	binary.LittleEndian.PutUint64(buf, uint64(caller)<<48|seq&(1<<48-1))
	return buf
}

func bootFixture(cfg fixtureConfig) (f *fixture, err error) {
	f = &fixture{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if cfg.net {
		f.base = transport.Net{}
	} else {
		f.base = transport.NewMem(transport.MemConfig{Seed: cfg.seed})
	}
	f.tr = f.base
	if cfg.traced {
		ct := newCountingTransport(f.base)
		f.tr, f.counts = ct, ct.c
	}
	var handler cluster.Handler
	if cfg.stamp {
		f.stamps = &stampHandler{deq: make([]atomic.Int64, cfg.callers)}
		handler = f.stamps
	}
	eps := make([]cluster.Endpoint, 0, clusterNodes)
	for i := 0; i < clusterNodes; i++ {
		n, err := cluster.StartNode(cluster.NodeConfig{
			ID:        i,
			Service:   serviceName,
			Transport: f.tr,
			Workers:   1,
			SlowProb:  -1,
			Handler:   handler,
			Seed:      cfg.seed + uint64(i)*7919,
		})
		if err != nil {
			return f, fmt.Errorf("start node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, n)
		eps = append(eps, n.Endpoint())
	}
	f.client, err = cluster.NewClient(cluster.ClientConfig{
		ID:              0,
		Service:         serviceName,
		Policy:          core.NewPoll(clientPoll),
		Transport:       f.tr,
		StaticEndpoints: eps,
		Seed:            cfg.seed + 104729,
	})
	if err != nil {
		return f, fmt.Errorf("start client: %w", err)
	}
	// One probe access proves the path end to end before timing starts.
	info, err := f.client.Access(0, []byte("probe"))
	if err != nil {
		return f, fmt.Errorf("probe access: %w", err)
	}
	if info.Resp.Status != cluster.StatusOK {
		return f, fmt.Errorf("probe access: status %d", info.Resp.Status)
	}
	if cfg.net {
		if err := f.startGateway(cfg.callers); err != nil {
			return f, err
		}
	}
	return f, nil
}

// startGateway fronts the client with the HTTP gateway on the base
// fabric (its traffic stays out of the transport counts) and builds an
// HTTP client holding at most callers keep-alive connections.
func (f *fixture) startGateway(callers int) error {
	gw, err := gateway.New(gateway.Config{
		Backends:      []*cluster.Client{f.client},
		Tenants:       []gateway.TenantConfig{{Name: tenantName}},
		DefaultTenant: tenantName,
	})
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	ln, err := f.base.Listen()
	if err != nil {
		return fmt.Errorf("gateway listen: %w", err)
	}
	if err := gw.Start(ln); err != nil {
		_ = ln.Close()
		return fmt.Errorf("gateway start: %w", err)
	}
	f.gw = gw
	base := f.base
	f.httpTr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return base.Dial(addr, 5*time.Second)
		},
		MaxIdleConnsPerHost: callers,
		MaxConnsPerHost:     callers,
	}
	f.http = &http.Client{Transport: f.httpTr, Timeout: 10 * time.Second}
	f.url = "http://" + gw.Addr() + "/access"
	return nil
}

// served is Σ Node.Stats().Served over the cluster.
func (f *fixture) served() int64 { return f.nodeTotals().served }

// servedPerNode is each node's Node.Stats().Served.
func (f *fixture) servedPerNode() []float64 {
	per := make([]float64, len(f.nodes))
	for i, n := range f.nodes {
		per[i] = float64(n.Stats().Served)
	}
	return per
}

type nodeTotals struct{ served, overloads, inquiries int64 }

func (f *fixture) nodeTotals() nodeTotals {
	var t nodeTotals
	for _, n := range f.nodes {
		s := n.Stats()
		t.served += s.Served
		t.overloads += s.Overloads
		t.inquiries += s.Inquiries
	}
	return t
}

func (f *fixture) close() {
	if f.gw != nil {
		_ = f.gw.Close()
	}
	if f.httpTr != nil {
		f.httpTr.CloseIdleConnections()
	}
	if f.client != nil {
		_ = f.client.Close()
	}
	for _, n := range f.nodes {
		_ = n.Close()
	}
}

// bootTimed boots the fixture warm+reps times, closing all but the
// last, and returns it with the median of the last reps boot times in
// seconds: set-up is measured several times per run so one slow boot
// does not decide it. A boot is mostly allocating and clearing the
// fabric's and nodes' channel buffers; the first dozen or so in a
// process run while its heap grows to its steady size and take up to
// twice as long, which the warm boots absorb. Each boot starts from a
// collected heap, so whether a collection lands inside it does not
// depend on what ran before.
func bootTimed(cfg fixtureConfig, warm, reps int) (*fixture, float64, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := bootFixture(cfg)
		if err != nil {
			return nil, 0, nil, err
		}
		if i >= warm {
			times = append(times, time.Since(t0).Seconds())
		}
		if i == warm+reps-1 {
			return f, median(times), times, nil
		}
		f.close()
	}
}
