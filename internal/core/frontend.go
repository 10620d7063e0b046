package core

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/doh"
	"dohpool/internal/metrics"
	"dohpool/internal/reuseport"
	"dohpool/internal/udpbatch"
)

// ErrFrontendClosed is returned by methods on a closed Frontend.
var ErrFrontendClosed = errors.New("dns frontend closed")

// Frontend defaults.
const (
	// DefaultUDPQueue bounds slow-path datagrams in flight (each waiting
	// on a generation in a goroutine of its own); beyond it the frontend
	// sheds load by dropping (the stub retries).
	DefaultUDPQueue = 1024
	// DefaultMaxTCPConns bounds concurrently served TCP connections
	// (RFC 7766 §6.2.2 advises limiting per-server connection load).
	DefaultMaxTCPConns = 256
	// DefaultTCPIdleTimeout closes a TCP connection with no query activity
	// (RFC 7766 §6.2.3 idle session handling).
	DefaultTCPIdleTimeout = 10 * time.Second
)

// Backend answers pool lookups for the frontend. Both the one-shot
// Generator and the long-lived Engine implement it.
type Backend interface {
	Lookup(ctx context.Context, domain string, typ dnswire.Type) (*Pool, error)
	// ServeMajority selects whether answers carry the majority-filtered
	// set instead of the full pool.
	ServeMajority() bool
}

// FrontendConfig tunes the DNS frontend's serving behaviour.
type FrontendConfig struct {
	// Timeout bounds one pool generation (default 5s).
	Timeout time.Duration
	// UDPQueue bounds slow-path datagrams in flight (default
	// DefaultUDPQueue); the frontend drops excess instead of spawning
	// without bound.
	UDPQueue int
	// UDPBatch is how many datagrams one reader syscall may move via
	// recvmmsg/sendmmsg on platforms that support it (Linux amd64/arm64).
	// 0 uses udpbatch.DefaultBatch; 1 forces the portable one-datagram-
	// per-syscall path everywhere. Batching only changes syscall
	// amortisation, never per-query semantics.
	UDPBatch int
	// UDPSockets is how many SO_REUSEPORT UDP sockets share the serving
	// port, each with its own reader loop, batch state and buffers —
	// kernel flow steering spreads inbound load across them with no
	// shared lock or channel on the fast path. 0 sizes from NumCPU;
	// 1 is classic single-socket serving. On platforms without
	// SO_REUSEPORT (anything but Linux) the value is clamped to 1.
	// Per-query semantics never change: every socket serves the same
	// wire cache and shares the same UDPQueue budget.
	UDPSockets int
	// MaxTCPConns bounds concurrently served TCP connections (default
	// DefaultMaxTCPConns).
	MaxTCPConns int
	// TCPIdleTimeout closes idle TCP connections (default
	// DefaultTCPIdleTimeout).
	TCPIdleTimeout time.Duration
	// DoTAddr, when non-empty, additionally serves DNS over TLS
	// (RFC 7858) on this address ("127.0.0.1:0" for ephemeral). The DoT
	// listener is the plain RFC 7766 TCP loop behind a TLS handshake, so
	// MaxTCPConns and TCPIdleTimeout apply to it unchanged. Requires
	// TLSConfig.
	DoTAddr string
	// DoHAddr, when non-empty, additionally serves DNS over HTTPS
	// (RFC 8484, HTTP/2 via TLS ALPN) on this address at
	// doh.DefaultPath. Requires TLSConfig.
	DoHAddr string
	// TLSConfig carries the server identity presented by the DoT and
	// DoH listeners; required when either encrypted address is set.
	TLSConfig *tls.Config
	// Metrics, when non-nil, receives the frontend's instruments (queries
	// per transport, response codes, in-flight queries, TCP connections,
	// shed datagrams).
	Metrics *metrics.Registry
}

func (c *FrontendConfig) setDefaults() {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.UDPQueue <= 0 {
		c.UDPQueue = DefaultUDPQueue
	}
	if c.UDPSockets <= 0 {
		c.UDPSockets = runtime.NumCPU()
	}
	if !reuseport.Supported {
		c.UDPSockets = 1
	}
	if c.MaxTCPConns <= 0 {
		c.MaxTCPConns = DefaultMaxTCPConns
	}
	if c.TCPIdleTimeout <= 0 {
		c.TCPIdleTimeout = DefaultTCPIdleTimeout
	}
}

// Frontend is the paper's "standard-compatible DNS-resolver interface": a
// plain-DNS server (UDP with EDNS-aware truncation, plus persistent-
// connection TCP per RFC 7766) whose answers come from the consensus
// backend. Legacy applications point their stub resolver at it and
// transparently receive consensus-backed pools. UDP datagrams that miss
// the wire cache each wait on their generation in a goroutine of their
// own, at most UDPQueue at a time, and TCP is served by a bounded
// connection pool, so a query flood degrades by shedding load instead of
// by unbounded goroutine growth.
//
// With FrontendConfig.DoTAddr / DoHAddr set, the same backend
// additionally serves DNS over TLS (RFC 7858) and DNS over HTTPS
// (RFC 8484) — closing the gap where consensus-validated pools were
// re-exposed to off-path spoofing on the serving hop. All listeners
// answer from the same engine cache: a domain warmed over any transport
// is a cache hit on every other.
type Frontend struct {
	backend Backend
	wire    wireBackend // backend's fast-path extension; nil when absent
	cfg     FrontendConfig
	inst    frontendInstruments
	socks   []*udpSocket // SO_REUSEPORT siblings on one port; len 1 without reuseport
	tcpLn   net.Listener
	dotLn   net.Listener // nil unless DoTAddr was set
	dohLn   net.Listener // nil unless DoHAddr was set
	dohSrv  *http.Server // nil unless DoHAddr was set

	pktPool sync.Pool
	// streamPool recycles the per-connection scratch (read buffer, key
	// scratch, response copy target) the stream fast path serves from.
	streamPool sync.Pool

	closed atomic.Bool
	wg     sync.WaitGroup
	// parked counts slow-path datagrams in flight, capped at UDPQueue.
	parked atomic.Int64

	// Per-connection stream tracking, taken on every accept and close.
	//dohlint:hotlock
	tcpMu    sync.Mutex
	tcpConns map[net.Conn]struct{}

	served   atomic.Uint64
	failures atomic.Uint64
	dropped  atomic.Uint64
}

// udpSocket is one of the frontend's SO_REUSEPORT UDP sockets: the
// socket itself, its batch I/O state, and its pre-resolved counters.
// Each socket is owned by exactly one reader goroutine, so the batch
// state needs no locking; the kernel steers every client flow to a
// consistent socket, so slow-path replies also leave through the socket
// that read the query (the slow path writes via pkt.sock).
type udpSocket struct {
	conn  *net.UDPConn
	uconn *udpbatch.Conn
	inst  udpSocketInstruments
}

// udpPacket is one pooled datagram: a fixed buffer, the peer address
// (filled in place by the batch reader, so its IP backing never
// reallocates) and the udpbatch view over both. The fast path reuses
// the query buffer for the response; the slow path reads the query out
// of it and sends its own encoded response. Invariant: dg.Buf always
// spans buf and dg.Addr always points at addr, so a packet can cycle
// through the pool indefinitely.
type udpPacket struct {
	dg   udpbatch.Datagram
	addr net.UDPAddr
	// sock is the socket whose reader pulled this packet, so the slow
	// path answers through the same socket (flow affinity preserved).
	sock *udpSocket
	buf  [udpPacketBuf]byte
	// key is answerWire's cache-key scratch. It lives here rather than on
	// answerWire's stack because the key slice crosses the wireBackend
	// interface boundary, which defeats escape analysis and would turn
	// every fast-path datagram into a heap allocation.
	key [wireKeyMax]byte
}

func newUDPPacket() *udpPacket {
	p := &udpPacket{}
	p.addr.IP = make(net.IP, 0, 16)
	p.dg.Buf = p.buf[:]
	p.dg.Addr = &p.addr
	return p
}

func (f *Frontend) getPacket() *udpPacket  { return f.pktPool.Get().(*udpPacket) }
func (f *Frontend) putPacket(p *udpPacket) { f.pktPool.Put(p) }

// NewFrontend starts the frontend on addr ("127.0.0.1:0" for ephemeral)
// with default sizing; the same port serves UDP and TCP.
// timeout bounds each pool generation (default 5 s).
func NewFrontend(addr string, backend Backend, timeout time.Duration) (*Frontend, error) {
	return NewFrontendWithConfig(addr, backend, FrontendConfig{Timeout: timeout})
}

// NewFrontendWithConfig starts the frontend on addr with explicit tuning.
func NewFrontendWithConfig(addr string, backend Backend, cfg FrontendConfig) (*Frontend, error) {
	cfg.setDefaults()
	if (cfg.DoTAddr != "" || cfg.DoHAddr != "") && cfg.TLSConfig == nil {
		return nil, errors.New("frontend: DoTAddr/DoHAddr require a TLSConfig server identity")
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conns, tcpLn, err := listenSamePort(udpAddr, cfg.UDPSockets)
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		backend:  backend,
		cfg:      cfg,
		inst:     newFrontendInstruments(cfg.Metrics, cfg.DoTAddr != "", cfg.DoHAddr != "", len(conns)),
		socks:    make([]*udpSocket, len(conns)),
		tcpLn:    tcpLn,
		tcpConns: make(map[net.Conn]struct{}),
	}
	for i, conn := range conns {
		uconn, err := udpbatch.New(conn, cfg.UDPBatch)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			tcpLn.Close()
			return nil, err
		}
		f.socks[i] = &udpSocket{conn: conn, uconn: uconn, inst: f.inst.udpSockets[i]}
	}
	f.wire, _ = backend.(wireBackend)
	f.pktPool.New = func() any { return newUDPPacket() }
	f.streamPool.New = func() any { return &streamScratch{} }
	if cfg.DoTAddr != "" {
		// RFC 7858 is the RFC 7766 message stream behind a TLS
		// handshake: wrap the listener and reuse the TCP serving loop
		// (same MaxTCPConns bound, same idle timeout) unchanged. No ALPN
		// list — DoT predates mandatory ALPN, and a server that insists
		// on "dot" rejects stubs that offer nothing (or h2-configured
		// test clients); with none configured every offer is accepted.
		inner, err := net.Listen("tcp", cfg.DoTAddr)
		if err != nil {
			f.closeListeners()
			return nil, err
		}
		f.dotLn = tls.NewListener(inner, tlsWithALPN(cfg.TLSConfig))
	}
	if cfg.DoHAddr != "" {
		ln, err := net.Listen("tcp", cfg.DoHAddr)
		if err != nil {
			f.closeListeners()
			return nil, err
		}
		// The DoH listener gets the same MaxTCPConns budget the other
		// stream listeners enforce via serveStream's semaphore —
		// http.Server spawns a goroutine per accepted conn, so an
		// unbounded Accept would reopen exactly the unbounded-growth
		// failure mode the frontend exists to prevent.
		f.dohLn = newLimitListener(ln, f.cfg.MaxTCPConns)
		mux := http.NewServeMux()
		dohHandler := doh.NewHandler(frontendResponder{f})
		// Answered from the raw query bytes, the same bytes the UDP/TCP
		// paths serve. Padded or otherwise EDNS-optioned queries fall
		// through to the handler so it can honour RFC 8467 response
		// padding.
		dohHandler.Wire = f.serveDoH
		mux.Handle(doh.DefaultPath, dohHandler)
		f.dohSrv = &http.Server{
			Handler:           mux,
			TLSConfig:         tlsWithALPN(cfg.TLSConfig, "h2", "http/1.1"),
			ReadHeaderTimeout: 5 * time.Second,
			// Idle keep-alive conns must not pin their limit-listener
			// slot forever — same idle semantics as the TCP/DoT loops.
			IdleTimeout: cfg.TCPIdleTimeout,
			// TLS probes and handshake failures are expected noise on an
			// exposed listener; keep them out of the process log.
			ErrorLog: log.New(io.Discard, "", 0),
			ConnState: func(_ net.Conn, state http.ConnState) {
				switch state {
				case http.StateNew:
					f.inst.doh.conns.Inc()
				case http.StateClosed, http.StateHijacked:
					f.inst.doh.conns.Dec()
				}
			},
		}
	}
	f.wg.Add(1 + len(f.socks))
	for _, s := range f.socks {
		go f.readUDP(s)
	}
	go f.serveStream(f.tcpLn, &f.inst.tcp)
	if f.dotLn != nil {
		f.wg.Add(1)
		go f.serveStream(f.dotLn, &f.inst.dot)
	}
	if f.dohSrv != nil {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = f.dohSrv.ServeTLS(f.dohLn, "", "")
		}()
	}
	return f, nil
}

// tlsWithALPN clones cfg with the given ALPN protocol list (cfg itself
// is shared between the DoT and DoH listeners, which advertise
// different protocols; no arguments means accept any offer).
func tlsWithALPN(cfg *tls.Config, protos ...string) *tls.Config {
	out := cfg.Clone()
	out.NextProtos = protos
	return out
}

// closeListeners releases whatever listeners a partially constructed
// frontend has bound (startup error paths only).
func (f *Frontend) closeListeners() {
	for _, s := range f.socks {
		s.conn.Close()
	}
	f.tcpLn.Close()
	if f.dotLn != nil {
		f.dotLn.Close()
	}
	if f.dohLn != nil {
		f.dohLn.Close()
	}
}

// limitListener bounds concurrently accepted connections: Accept blocks
// while the budget is exhausted (backpressure in the kernel's accept
// queue, same as serveStream's semaphore) and a slot is released when
// the accepted connection closes.
type limitListener struct {
	net.Listener
	sem chan struct{}
}

func newLimitListener(ln net.Listener, n int) *limitListener {
	return &limitListener{Listener: ln, sem: make(chan struct{}, n)}
}

// Accept implements net.Listener.
func (l *limitListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	conn, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: conn, release: func() { <-l.sem }}, nil
}

// limitConn releases its listener slot exactly once on first Close.
type limitConn struct {
	net.Conn
	once    sync.Once
	release func()
}

// Close implements net.Conn.
func (c *limitConn) Close() error {
	c.once.Do(c.release)
	return c.Conn.Close()
}

// frontendResponder adapts the frontend's backend-answering path to
// doh.QueryResponder, so the DoH listener reuses the exact RFC 8484
// handler (media types, padding, Cache-Control from the pool TTL) that
// the upstream resolvers are queried with.
type frontendResponder struct{ f *Frontend }

// Respond implements doh.QueryResponder; only queries serveDoH left to
// the handler (those carrying EDNS options) arrive here. The request
// context rides along so an abandoned HTTP request stops driving the
// backend and Close's drain can cancel in-flight handlers with their
// connections.
func (r frontendResponder) Respond(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error) {
	return r.f.respond(ctx, query, nil, dnswire.MaxMessageSize, &r.f.inst.doh).msg, nil
}

// listenSamePort binds sockets UDP sockets and one TCP listener to one
// port number. With an ephemeral request (port 0) the kernel picks the
// UDP port without regard for TCP, so the TCP bind can collide with an
// unrelated listener — retry with a fresh UDP port instead of failing
// startup. With sockets > 1 every UDP socket (including the first) is
// bound with SO_REUSEPORT — the option must be on all of a port's
// sockets for the kernel to admit the shared bind; the siblings bind
// the port the first socket resolved, which cannot collide because the
// first socket already owns it with the same option.
func listenSamePort(udpAddr *net.UDPAddr, sockets int) ([]*net.UDPConn, net.Listener, error) {
	const attempts = 5
	listenFirst := func() (*net.UDPConn, error) {
		if sockets > 1 {
			return reuseport.ListenUDP("udp", udpAddr.String())
		}
		return net.ListenUDP("udp", udpAddr)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		first, err := listenFirst()
		if err != nil {
			return nil, nil, err
		}
		resolved := first.LocalAddr().String()
		tcpLn, err := net.Listen("tcp", resolved)
		if err != nil {
			lastErr = err
			first.Close()
			if udpAddr.Port != 0 {
				break // a fixed port will not change on retry
			}
			continue
		}
		conns := []*net.UDPConn{first}
		for len(conns) < sockets {
			c, err := reuseport.ListenUDP("udp", resolved)
			if err != nil {
				for _, cc := range conns {
					cc.Close()
				}
				tcpLn.Close()
				return nil, nil, err
			}
			conns = append(conns, c)
		}
		return conns, tcpLn, nil
	}
	return nil, nil, lastErr
}

// Addr returns the frontend's plain-DNS host:port (UDP and TCP).
func (f *Frontend) Addr() string { return f.socks[0].conn.LocalAddr().String() }

// UDPSockets returns how many SO_REUSEPORT UDP sockets are serving the
// plain-DNS port (1 on platforms without SO_REUSEPORT).
func (f *Frontend) UDPSockets() int { return len(f.socks) }

// DoTAddr returns the DoT listener's host:port, or "" when DoT serving
// is disabled.
func (f *Frontend) DoTAddr() string {
	if f.dotLn == nil {
		return ""
	}
	return f.dotLn.Addr().String()
}

// DoHAddr returns the DoH listener's host:port, or "" when DoH serving
// is disabled.
func (f *Frontend) DoHAddr() string {
	if f.dohLn == nil {
		return ""
	}
	return f.dohLn.Addr().String()
}

// ListenerInfo describes one live serving listener for introspection
// (the admin server's /healthz and /poolz endpoints).
type ListenerInfo struct {
	// Proto is the transport label: "udp", "tcp", "dot" or "doh".
	Proto string `json:"proto"`
	// Addr is the listener's host:port.
	Addr string `json:"addr"`
	// Encrypted reports whether the transport authenticates the channel
	// (the paper's requirement for every hop).
	Encrypted bool `json:"encrypted"`
}

// Listeners reports every transport the frontend is currently serving.
func (f *Frontend) Listeners() []ListenerInfo {
	out := []ListenerInfo{
		{Proto: ProtoUDP, Addr: f.Addr()},
		{Proto: ProtoTCP, Addr: f.tcpLn.Addr().String()},
	}
	if f.dotLn != nil {
		out = append(out, ListenerInfo{Proto: ProtoDoT, Addr: f.DoTAddr(), Encrypted: true})
	}
	if f.dohLn != nil {
		out = append(out, ListenerInfo{Proto: ProtoDoH, Addr: f.DoHAddr(), Encrypted: true})
	}
	return out
}

// Served returns the number of queries answered.
func (f *Frontend) Served() uint64 { return f.served.Load() }

// Failures returns the number of queries that ended in an error RCode.
func (f *Frontend) Failures() uint64 { return f.failures.Load() }

// Dropped returns the number of UDP datagrams shed: received while
// UDPQueue slow-path datagrams were already in flight, or still waiting
// on a generation when Close took their socket away.
func (f *Frontend) Dropped() uint64 { return f.dropped.Load() }

// shed counts one datagram received on s and dropped unanswered.
func (f *Frontend) shed(s *udpSocket) {
	f.dropped.Add(1)
	f.inst.dropped.Inc()
	s.inst.drops.Inc()
}

// Close stops the frontend and waits for in-flight handlers. Slow-path
// datagrams run out their generations side by side, each inside its own
// Timeout, and are counted as dropped when the answer finds the socket
// closed.
func (f *Frontend) Close() error {
	if f.closed.Swap(true) {
		return ErrFrontendClosed
	}
	for _, s := range f.socks {
		s.conn.Close()
	}
	f.tcpLn.Close()
	if f.dotLn != nil {
		f.dotLn.Close()
	}
	if f.dohSrv != nil {
		// Shutdown drains in-flight DoH handlers (closing idle conns
		// immediately), matching the wg.Wait drain the TCP/DoT conns
		// get below; the deadline bounds it by the same per-query
		// timeout a handler can spend in the backend, with Close as the
		// backstop for peers that hold streams open past it.
		ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Timeout)
		_ = f.dohSrv.Shutdown(ctx)
		cancel()
		_ = f.dohSrv.Close()
	}
	f.tcpMu.Lock()
	for c := range f.tcpConns {
		c.Close()
	}
	f.tcpMu.Unlock()
	f.wg.Wait()
	return nil
}

// readUDP is one socket's reader loop; with SO_REUSEPORT serving there
// is one per socket, each fully independent — own batch arrays, own
// pooled packets, own sendmmsg flush — so nothing is locked or shared
// between sockets on the fast path. Each pass moves up to one batch of
// datagrams in one recvmmsg, serves every wire-cache hit inline (the
// answer is built in the packet's own buffer, so a cached hit is a
// memcpy plus an ID/flags/TTL patch with zero allocations and no
// goroutine handoff), flushes all inline answers in one sendmmsg, and
// hands each other datagram to a goroutine of its own (serveParked), so
// no miss waits behind another one's generation. On platforms without
// the batch syscalls — or with UDPBatch 1 — the same loop runs with a
// batch of one datagram per portable syscall. Packets served inline
// never leave their batch slots, so the steady-state hot path recycles
// the same buffers forever; only slow-path packets cycle through the
// pool.
func (f *Frontend) readUDP(s *udpSocket) {
	defer f.wg.Done()
	batch := s.uconn.BatchSize()
	pkts := make([]*udpPacket, batch)
	dgs := make([]*udpbatch.Datagram, batch)
	for i := range pkts {
		pkts[i] = f.getPacket()
		pkts[i].sock = s
		dgs[i] = &pkts[i].dg
	}
	out := make([]*udpbatch.Datagram, 0, batch)
	for {
		n, err := s.uconn.ReadBatch(dgs)
		if err != nil {
			if f.closed.Load() {
				return
			}
			continue
		}
		s.inst.packets.Add(uint64(n))
		out = out[:0]
		for i := 0; i < n; i++ {
			pkt := pkts[i]
			if f.answerWire(pkt) {
				out = append(out, &pkt.dg)
				continue
			}
			if f.parked.Add(1) > int64(f.cfg.UDPQueue) {
				// UDPQueue datagrams already wait on generations: shed
				// load. The stub resolver retries, and by then the answer
				// is usually a wire-cache hit.
				f.parked.Add(-1)
				f.shed(s)
				continue
			}
			// This reader still holds its own count on wg, so Close's
			// Wait cannot have returned before this Add.
			f.wg.Add(1)
			go f.serveParked(pkt)
			// The new goroutine owns pkt now; restock the batch slot.
			np := f.getPacket()
			np.sock = s
			pkts[i] = np
			dgs[i] = &np.dg
		}
		f.writeUDPBatch(s, out)
	}
}

// serveParked answers one slow-path datagram and gives its packet and
// its UDPQueue slot back. It holds nothing but the packet while the
// backend generates.
func (f *Frontend) serveParked(pkt *udpPacket) {
	defer f.wg.Done()
	f.handleUDP(pkt)
	f.putPacket(pkt)
	f.parked.Add(-1)
}

// writeUDPBatch flushes a reader's inline answers through its own
// socket, counting (and skipping past) per-datagram send failures so
// one bad peer address cannot stall the batch.
//
//dohlint:noalloc
func (f *Frontend) writeUDPBatch(s *udpSocket, out []*udpbatch.Datagram) {
	for off := 0; off < len(out); {
		sent, err := s.uconn.WriteBatch(out[off:])
		off += sent
		if err != nil {
			if f.closed.Load() {
				return
			}
			f.inst.udp.writeErrs.Inc()
			off++
		}
	}
}

// serveStream is the RFC 7766 accept loop, shared by the plain TCP and
// the DoT listener (whose conns arrive TLS-wrapped but speak the same
// length-prefixed message stream). inst is the listener's per-protocol
// instrument set.
func (f *Frontend) serveStream(ln net.Listener, inst *protoInstruments) {
	defer f.wg.Done()
	// sem bounds concurrently served connections; acquiring before Accept
	// applies backpressure in the kernel's accept queue instead of holding
	// accepted-but-unserved sockets. Each stream listener gets its own
	// MaxTCPConns budget, so a flood on one transport cannot starve the
	// other.
	sem := make(chan struct{}, f.cfg.MaxTCPConns)
	for {
		sem <- struct{}{}
		conn, err := ln.Accept()
		if err != nil {
			<-sem
			if f.closed.Load() {
				return
			}
			continue
		}
		f.trackStream(conn, inst, true)
		// Re-check after tracking: Close may have swept tcpConns between
		// Accept and trackStream, in which case this conn escaped the
		// sweep and must be closed here.
		if f.closed.Load() {
			conn.Close()
			f.trackStream(conn, inst, false)
			<-sem
			return
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() { <-sem }()
			defer f.trackStream(conn, inst, false)
			defer conn.Close()
			f.serveStreamConn(conn, inst)
		}()
	}
}

func (f *Frontend) trackStream(conn net.Conn, inst *protoInstruments, add bool) {
	f.tcpMu.Lock()
	defer f.tcpMu.Unlock()
	if add {
		f.tcpConns[conn] = struct{}{}
		inst.conns.Inc()
	} else if _, ok := f.tcpConns[conn]; ok {
		delete(f.tcpConns, conn)
		inst.conns.Dec()
	}
}

// respondStream runs one slow-path query/response exchange on a stream
// connection, reporting whether the connection is still good for more.
// raw is the frame query was decoded from.
func (f *Frontend) respondStream(conn net.Conn, query *dnswire.Message, raw []byte, inst *protoInstruments) bool {
	ans := f.respond(context.Background(), query, raw, dnswire.MaxMessageSize, inst)
	if _, err := conn.Write(ans.framed); err != nil {
		if !f.closed.Load() {
			inst.writeErrs.Inc()
		}
		return false
	}
	return true
}

// handleUDP is the slow path for one datagram: full decode, then respond
// within the payload size the client advertised. The reply leaves through
// the socket whose reader pulled the query (pkt.sock), preserving the
// kernel's flow→socket affinity for the peer.
func (f *Frontend) handleUDP(pkt *udpPacket) {
	raw := pkt.dg.Buf[:pkt.dg.N]
	query, err := dnswire.Decode(raw)
	if err != nil {
		return // drop undecodable datagrams
	}
	// Honour the client's advertised UDP payload size; a response beyond
	// it is flagged truncated so the stub retries over TCP (RFC 1035
	// §4.2.1 behaviour).
	limit := dnswire.MaxUDPSize
	if size, ok := query.EDNSSize(); ok && int(size) > limit {
		limit = int(size)
	}
	ans := f.respond(context.Background(), query, raw, limit, &f.inst.udp)
	if _, err := pkt.sock.conn.WriteToUDP(ans.framed[2:], &pkt.addr); err != nil {
		if f.closed.Load() {
			// Close took the socket away while the generation ran.
			f.shed(pkt.sock)
		} else {
			f.inst.udp.writeErrs.Inc()
		}
	}
}

// slowAnswer is one slow-path response, encoded.
type slowAnswer struct {
	// framed is the response behind its RFC 7766 length prefix: a stream
	// writes it whole, a datagram or a DoH body is framed[2:].
	framed []byte
	// maxAge is the smallest answer TTL (0 without answers), for DoH.
	maxAge uint32
	// msg is what framed was encoded from; nil for a copied wire entry.
	msg *dnswire.Message
}

// respond answers one slow-path query from the consensus backend, on any
// transport: raw is the query as received (nil when the caller has only
// the message), limit the largest response the transport carries (beyond
// it the TC form is sent), inst the instrument set of the path that
// received it, and parent bounds the lookup alongside cfg.Timeout (the DoH
// path passes its request context, the others Background).
//
// Once the lookup has returned, the answer is the pre-encoded entry its
// generation published, copied and patched exactly as on the fast path.
// A message is built and encoded only when there is no such entry (error
// rcodes, uncacheable pools, a backend without a wire cache, a query the
// strict parser does not prove, an entry evicted along with its pool),
// and then from the pool that one lookup returned.
func (f *Frontend) respond(parent context.Context, query *dnswire.Message, raw []byte, limit int, inst *protoInstruments) slowAnswer {
	inst.queries.Inc()
	inst.inflight.Inc()
	start := time.Now()
	defer func() {
		inst.latency.Observe(time.Since(start).Seconds())
		inst.inflight.Dec()
	}()
	rcode := dnswire.RCodeSuccess
	switch {
	case query.Header.Response || query.Header.Opcode != dnswire.OpcodeQuery || len(query.Questions) != 1:
		rcode = dnswire.RCodeFormErr
	case query.Questions[0].Type != dnswire.TypeA && query.Questions[0].Type != dnswire.TypeAAAA:
		// The mechanism is specific to server-pool generation, which only
		// supports address lookups (paper §II).
		rcode = dnswire.RCodeNotImp
	default:
		q := query.Questions[0]
		ctx, cancel := context.WithTimeout(parent, f.cfg.Timeout)
		pool, err := f.backend.Lookup(ctx, q.Name, q.Type)
		cancel()
		if err != nil {
			rcode = dnswire.RCodeServFail
			break
		}
		ans, ok := f.wireAnswer(raw, limit)
		if !ok {
			ans, ok = f.poolAnswer(query, pool, limit)
		}
		if ok {
			f.served.Add(1)
			f.inst.rcode(dnswire.RCodeSuccess).Inc()
			return ans
		}
		// A pool too large for a 64 KiB message cannot be sent on any
		// transport: to the client that is a failed resolution, and it is
		// counted as one.
		rcode = dnswire.RCodeServFail
	}
	f.failures.Add(1)
	f.inst.rcode(rcode).Inc()
	resp := dnswire.NewErrorResponse(query, rcode)
	framed, _ := encodeFramed(resp, limit) // a header and the query's own question always encode
	return slowAnswer{framed: framed, msg: resp}
}

// wireAnswer is the fast paths' patch-and-copy for a query whose Lookup
// has just returned: the entry for raw's question, in the form that fits
// limit, with the query's ID and RD/CD bits and the aged TTL.
func (f *Frontend) wireAnswer(raw []byte, limit int) (slowAnswer, bool) {
	if f.wire == nil {
		return slowAnswer{}, false
	}
	var scratch [wireKeyMax]byte
	key, _, _, ok := parseWireQuery(raw, scratch[:])
	if !ok {
		return slowAnswer{}, false
	}
	we, age, ok := f.wire.WireLookup(key, true)
	if !ok {
		return slowAnswer{}, false
	}
	form, truncated := we.Form(limit)
	ans := slowAnswer{framed: frame(form)}
	body := ans.framed[2:]
	dnswire.PatchID(body, uint16(raw[0])<<8|uint16(raw[1]))
	dnswire.EchoFlags(body, raw)
	if !truncated {
		ttl := agedTTL(we.TTL, age)
		dnswire.PatchAnswerTTLs(body, we.TTLOffsets, ttl)
		if len(we.TTLOffsets) > 0 {
			ans.maxAge = ttl
		}
	}
	return ans, true
}

// poolAnswer builds and encodes the answer carrying pool; false when it
// cannot be encoded.
func (f *Frontend) poolAnswer(query *dnswire.Message, pool *Pool, limit int) (slowAnswer, bool) {
	resp := dnswire.NewResponse(query)
	resp.Header.RecursionAvailable = true
	addrs := pool.Addrs
	if f.backend.ServeMajority() {
		addrs = pool.Majority
	}
	ttl := pool.TTL
	if ttl == 0 {
		ttl = DefaultPoolTTL
	}
	name := query.Questions[0].Name
	resp.Answers = make([]dnswire.Record, 0, len(addrs))
	for _, a := range addrs {
		resp.Answers = append(resp.Answers, dnswire.AddressRecord(name, a, ttl))
	}
	framed, err := encodeFramed(resp, limit)
	return slowAnswer{framed: framed, maxAge: resp.MinAnswerTTL(0), msg: resp}, err == nil
}

// encodeFramed encodes resp behind its RFC 7766 length prefix — in the TC
// form (sections stripped, so the stub retries over TCP) when the full
// one exceeds limit.
func encodeFramed(resp *dnswire.Message, limit int) ([]byte, error) {
	wire, err := resp.Encode()
	if err != nil {
		return nil, err
	}
	if len(wire) > limit {
		truncated := resp.Copy()
		truncated.Answers = nil
		truncated.Authority = nil
		truncated.Additional = nil
		truncated.Header.Truncated = true
		if wire, err = truncated.Encode(); err != nil {
			return nil, err
		}
	}
	return frame(wire), nil
}
