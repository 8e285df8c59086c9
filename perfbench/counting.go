package main

import (
	"net"
	"sync/atomic"
	"time"

	"finelb/internal/transport"
)

// transportCounts are the counting wrapper's totals: datagrams and
// stream writes sent, payload bytes sent on both planes, and dials.
type transportCounts struct {
	datagrams    atomic.Int64
	streamWrites atomic.Int64
	bytes        atomic.Int64
	dials        atomic.Int64
}

type countSnapshot struct{ datagrams, streamWrites, bytes, dials int64 }

func (c *transportCounts) snapshot() countSnapshot {
	return countSnapshot{c.datagrams.Load(), c.streamWrites.Load(), c.bytes.Load(), c.dials.Load()}
}

func (s countSnapshot) sub(o countSnapshot) countSnapshot {
	return countSnapshot{s.datagrams - o.datagrams, s.streamWrites - o.streamWrites, s.bytes - o.bytes, s.dials - o.dials}
}

// countingTransport wraps a transport.Transport and counts what crosses
// the seam. It counts sends only, so each datagram or stream write is
// counted once, by its sender.
type countingTransport struct {
	inner transport.Transport
	c     *transportCounts
}

func newCountingTransport(inner transport.Transport) *countingTransport {
	return &countingTransport{inner: inner, c: &transportCounts{}}
}

func (t *countingTransport) Listen() (transport.Listener, error) {
	ln, err := t.inner.Listen()
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: ln, c: t.c}, nil
}

func (t *countingTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	t.c.dials.Add(1)
	conn, err := t.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: t.c}, nil
}

func (t *countingTransport) ListenPacket() (transport.PacketConn, error) {
	pc, err := t.inner.ListenPacket()
	if err != nil {
		return nil, err
	}
	return wrapPacketConn(pc, t.c), nil
}

func (t *countingTransport) DialPacket(addr string, link transport.Link) (transport.PacketConn, error) {
	t.c.dials.Add(1)
	pc, err := t.inner.DialPacket(addr, link)
	if err != nil {
		return nil, err
	}
	return wrapPacketConn(pc, t.c), nil
}

// wrapPacketConn keeps the inner conn's optional HandlerPacketConn
// capability: without it a node on the mem fabric would fall back to a
// read loop, and a traced run would measure a different program.
func wrapPacketConn(pc transport.PacketConn, c *transportCounts) transport.PacketConn {
	cp := &countingPacketConn{PacketConn: pc, c: c}
	if hc, ok := pc.(transport.HandlerPacketConn); ok {
		return &countingHandlerPacketConn{countingPacketConn: cp, hc: hc}
	}
	return cp
}

type countingPacketConn struct {
	transport.PacketConn
	c *transportCounts
}

func (p *countingPacketConn) WriteTo(b []byte, addr string) (int, error) {
	p.c.datagrams.Add(1)
	p.c.bytes.Add(int64(len(b)))
	return p.PacketConn.WriteTo(b, addr)
}

func (p *countingPacketConn) Write(b []byte) (int, error) {
	p.c.datagrams.Add(1)
	p.c.bytes.Add(int64(len(b)))
	return p.PacketConn.Write(b)
}

type countingHandlerPacketConn struct {
	*countingPacketConn
	hc transport.HandlerPacketConn
}

func (p *countingHandlerPacketConn) SetPacketHandler(h transport.PacketHandler) bool {
	return p.hc.SetPacketHandler(h)
}

type countingListener struct {
	transport.Listener
	c *transportCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *transportCounts
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.c.streamWrites.Add(1)
	c.c.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
}
