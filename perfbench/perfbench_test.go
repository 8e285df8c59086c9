package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"finelb/internal/transport"
)

// The counting wrapper must keep the mem fabric's synchronous-handler
// capability, or a traced mem run would fall back to read loops and
// measure a different program; on Net it must not invent it.
func TestCountingTransportKeepsHandlerCapability(t *testing.T) {
	ct := newCountingTransport(transport.NewMem(transport.MemConfig{Seed: 1}))
	srv, err := ct.ListenPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hc, ok := srv.(transport.HandlerPacketConn)
	if !ok {
		t.Fatal("wrapped mem ListenPacket conn lost HandlerPacketConn")
	}
	var got []byte
	if !hc.SetPacketHandler(func(p []byte, _ string) { got = append([]byte(nil), p...) }) {
		t.Fatal("wrapped mem conn refused the packet handler")
	}
	c, err := ct.DialPacket(srv.LocalAddr(), transport.NoLink)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(transport.HandlerPacketConn); !ok {
		t.Fatal("wrapped mem DialPacket conn lost HandlerPacketConn")
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	// Mem delivers an undelayed datagram on the sender's goroutine, so
	// the handler has run by the time Write returns.
	if string(got) != "ping" {
		t.Fatalf("handler saw %q after Write returned, want synchronous delivery of %q", got, "ping")
	}
	if n := ct.c.snapshot(); n.datagrams != 1 || n.bytes != 4 || n.dials != 1 {
		t.Fatalf("counts = %+v, want 1 datagram of 4 bytes and 1 dial", n)
	}

	nt := newCountingTransport(transport.Net{})
	pc, err := nt.ListenPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, ok := pc.(transport.HandlerPacketConn); ok {
		t.Fatal("wrapped Net conn claims HandlerPacketConn, which Net does not have")
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must describe exactly what the catalog measures.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q/%q, catalog %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalog %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for _, m := range endToEnd {
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %d: %+v, catalog %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower-is-better, with the largest bound")
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: %+v, catalog %+v", i, m, c)
		}
		if c.Moves == "" {
			t.Errorf("%s: the catalog records no end-to-end metric it should move", c.Name)
		}
	}
}

// Every workload, untraced and traced, at tiny size, emits every metric
// BENCHMARK.json names with its unit, and passes its own checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRun(w.Name, 1, 0.4, traced, true)
			if err := w.Run(r); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			rep, err := r.report()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			// The race detector slows the program several times over, so
			// the open-loop workload's fixed offered rate outruns the
			// cluster and its delivered-rate check fails, as it should.
			keepsUp := !raceEnabled || w.Name != "mem_fine90"
			if keepsUp && (!rep.Correct || rep.Failed != 0 || rep.Attempted < 1) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%v",
					w.Name, traced, rep.Correct, rep.Attempted, rep.Failed, r.checks)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(rep.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rep.Metrics), len(specs))
			}
			for _, s := range specs {
				if mv, ok := rep.Metrics[s.Name]; !ok || mv.Unit != s.Unit || mv.Unit == "" {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.Name, traced, s.Name, mv, s.Unit)
				}
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("%s: result line %s does not have exactly correct, attempted, failed, metrics", w.Name, line)
			}
		}
	}
}
