package runner

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"dohpool"
	"dohpool/bench/child"
	"dohpool/bench/dnsmsg"
	"dohpool/bench/gen"
	"dohpool/bench/procfs"
	"dohpool/bench/promtext"
	"dohpool/bench/trace"
	"dohpool/bench/upstream"
)

// target is what a workload measures: the dohpoold child process, or for
// lib_hit the dohpool.Client inside the runner itself.
type target interface {
	// sample reads the target's CPU time, memory and context switches.
	sample() (procfs.Sample, error)
	// scrape reads the target's metric families.
	scrape() (promtext.Scrape, error)
	stop()
}

// setupTimeout bounds one set-up: start, first answer, prewarm.
const setupTimeout = 20 * time.Second

// daemon is a running dohpoold.
type daemon struct {
	proc     *child.Proc
	addr     string // UDP and TCP
	dotAddr  string
	dohURL   string
	adminURL string
	// servingTLS trusts the daemon's self-signed serving certificate.
	servingTLS *tls.Config
}

func (d *daemon) sample() (procfs.Sample, error) { return procfs.Read(d.proc.Pid()) }

// adminClient scrapes /metrics. A wedged admin listener fails the traced run
// after the time a query is given, it does not hang it.
var adminClient = &http.Client{Timeout: queryTimeout}

func (d *daemon) scrape() (promtext.Scrape, error) {
	resp, err := adminClient.Get(d.adminURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return promtext.Parse(resp.Body)
}

// stop kills the daemon: it holds nothing worth an orderly shutdown, and a
// SIGTERM costs a second of every run.
func (d *daemon) stop() { d.proc.Stop(0) }

// freePort asks the kernel for a port that is free for both TCP and UDP
// right now. The daemon binds it a moment later; nothing else on a
// benchmark box is taking loopback ports in between.
func freePort() (int, error) {
	for try := 0; try < 16; try++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := ln.Addr().(*net.TCPAddr).Port
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		_ = ln.Close()
		if err == nil {
			_ = pc.Close()
			return port, nil
		}
	}
	return 0, errors.New("no port free for both TCP and UDP")
}

// startDaemon execs dohpoold for wl and returns once every configured
// listener has returned a valid answer and the hot set is warm. The
// duration is the set-up time: exec to that moment.
func startDaemon(ctx context.Context, cfg *Config, wl *Workload, up *upstream.Upstream, tab *table, check *dnsmsg.Checker, dir string, cpus *child.CPUSet) (*daemon, time.Duration, error) {
	var ports [4]int
	for i := range ports {
		var err error
		if ports[i], err = freePort(); err != nil {
			return nil, 0, err
		}
	}
	local := func(i int) string { return "127.0.0.1:" + strconv.Itoa(ports[i]) }
	d := &daemon{addr: local(0), adminURL: "http://" + local(1)}
	args := []string{"-listen", d.addr, "-admin", local(1), "-ca", filepath.Join(dir, "upstream-ca.pem")}
	for _, e := range up.Endpoints {
		args = append(args, "-resolver", e)
	}
	servingCA := filepath.Join(dir, "serving-ca.pem")
	switch wl.kind {
	case kindStream:
		d.dotAddr = local(2)
		args = append(args, "-dot-addr", d.dotAddr, "-tls-self-signed", "-tls-ca-out", servingCA)
	case kindDoH:
		d.dohURL = "https://" + local(3) + "/dns-query"
		args = append(args, "-doh-addr", local(3), "-tls-self-signed", "-tls-ca-out", servingCA)
	}
	if wl.kind == kindUDP {
		// One serving socket per generator flow, whatever the CPU count:
		// the SO_REUSEPORT path runs on every box, and dialFlows can give
		// each flow a reader of its own.
		args = append(args, "-udp-sockets", strconv.Itoa(Workers()))
	}
	args = append(args, wl.daemonArgs...)

	_ = os.Remove(servingCA)
	proc, err := child.Start(cfg.Log, cpus, filepath.Join(cfg.BinDir, "dohpoold"), args...)
	if err != nil {
		return nil, 0, err
	}
	d.proc = proc
	deadline := proc.Started.Add(setupTimeout)
	alive := func() bool { return ctx.Err() == nil && proc.Alive() }
	if err := d.warm(wl, tab, check, servingCA, alive, deadline); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("dohpoold set-up: %w", err)
	}
	return d, time.Since(proc.Started), nil
}

// warm waits for the first valid UDP answer, resolves the rest of the hot
// set, then takes one valid answer from each further listener.
func (d *daemon) warm(wl *Workload, tab *table, check *dnsmsg.Checker, servingCA string, alive func() bool, deadline time.Time) error {
	hot := max(wl.hot, 1) // a miss-only workload still proves the listener
	if err := resolveAll(d.addr, tab.names.Queries[:hot], check, alive, deadline); err != nil {
		return err
	}
	one := &gen.Names{Queries: tab.names.Queries[:1], Rcode: tab.names.Rcode[:1]}
	dials := []func() (net.Conn, error){func() (net.Conn, error) { return net.Dial("tcp", d.addr) }}
	if d.dotAddr != "" || d.dohURL != "" {
		pem, err := os.ReadFile(servingCA)
		if err != nil {
			return err
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return fmt.Errorf("no certificate in %s", servingCA)
		}
		d.servingTLS = &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}
	}
	if d.dotAddr != "" {
		dials = append(dials, func() (net.Conn, error) { return tls.Dial("tcp", d.dotAddr, d.servingTLS) })
	}
	timeout := time.Until(deadline)
	for _, dial := range dials {
		s, err := gen.NewStream(dial, one, check, timeout, time.Now())
		if err != nil {
			return err
		}
		out := s.Exchange(0, 1, nil)
		s.Close()
		if out != gen.OK {
			return fmt.Errorf("stream listener answered with outcome %d", out)
		}
	}
	if d.dohURL != "" {
		client := gen.NewDoHClient(d.servingTLS, timeout)
		defer client.CloseIdleConnections()
		if out := gen.NewDoH(client, d.dohURL, one, check, time.Now()).Exchange(0, 1, nil); out != gen.OK {
			return fmt.Errorf("DoH listener answered with outcome %d", out)
		}
	}
	return nil
}

// socketPackets is the counter family that says on which of the daemon's
// SO_REUSEPORT sockets a datagram arrived.
const socketPackets = "dohpool_frontend_udp_socket_packets_total"

// dialFlows opens n connected UDP sockets, each served by another of the
// daemon's n sockets. The kernel picks the serving socket from a keyed hash
// of addresses and ports, so left to chance two flows share one reader in
// every other run, and the run measures something else. The one handle on
// the choice is the source port: a flow that lands on a socket already taken
// is closed and the next is tried. A daemon that does not count packets per
// socket gets its flows as dialled.
func (d *daemon) dialFlows(n int, query []byte, check *dnsmsg.Checker) (flows []*net.UDPConn, err error) {
	defer func() {
		if err != nil {
			for _, c := range flows {
				_ = c.Close()
			}
			flows = nil
		}
	}()
	taken := map[string]bool{}
	blind := n < 2
	for tries := 0; len(flows) < n; tries++ {
		if tries == 32*n {
			return nil, fmt.Errorf("%d flows tried, %d of the daemon's %d sockets reached", tries, len(flows), n)
		}
		conn, err := dialUDP(d.addr)
		if err != nil {
			return nil, err
		}
		if !blind {
			socket, err := d.servingSocket(conn, query, check)
			switch {
			case err != nil:
				_ = conn.Close()
				return nil, err
			case socket == "":
				blind = true
			case taken[socket]:
				_ = conn.Close()
				continue
			}
			taken[socket] = true
		}
		flows = append(flows, conn)
	}
	return flows, nil
}

// servingSocket sends query on conn and returns the label of the daemon
// socket whose packet counter moved, "" when there is no such counter.
func (d *daemon) servingSocket(conn *net.UDPConn, query []byte, check *dnsmsg.Checker) (string, error) {
	before, err := d.scrape()
	if err != nil {
		return "", err
	}
	send, recv := append([]byte(nil), query...), make([]byte, 4096)
	dnsmsg.SetID(send, 0x5150)
	if _, err := conn.Write(send); err != nil {
		return "", err
	}
	// Only the read: the worker that takes the flow over sets its own read
	// deadlines, a write deadline would outlive this call.
	_ = conn.SetReadDeadline(time.Now().Add(queryTimeout))
	n, err := conn.Read(recv)
	if err != nil {
		return "", err
	}
	if r := check.Check(recv[:n], send, dnsmsg.RcodeNoError); r != dnsmsg.OK {
		return "", fmt.Errorf("flow placement: answer is invalid: %s", r)
	}
	after, err := d.scrape()
	if err != nil {
		return "", err
	}
	for socket, packets := range promtext.Delta(after, before).ByLabel(socketPackets, "socket") {
		if packets > 0 {
			return socket, nil
		}
	}
	return "", nil
}

// resolveAll sends every query over UDP until each has had one valid
// NOERROR answer: at most 16 outstanding, anything unanswered for 250 ms is
// sent again (while the daemon is still binding its socket, sends are
// refused or lost).
func resolveAll(addr string, queries [][]byte, check *dnsmsg.Checker, alive func() bool, deadline time.Time) error {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	const window, resend = 16, 250 * time.Millisecond
	sentAt := make([]time.Time, len(queries)) // zero: not sent, or the send was refused
	done := make([]bool, len(queries))
	left := len(queries)
	send, recv := make([]byte, 0, 512), make([]byte, 4096)
	for left > 0 {
		now := time.Now()
		if now.After(deadline) {
			return fmt.Errorf("%d of %d names unanswered at the set-up deadline", left, len(queries))
		}
		if !alive() {
			return errors.New("the daemon exited or the run was cancelled")
		}
		waiting := func(i int) bool { return !sentAt[i].IsZero() && now.Sub(sentAt[i]) < resend }
		inflight := 0
		for i := range queries {
			if !done[i] && waiting(i) {
				inflight++
			}
		}
		for i := 0; i < len(queries) && inflight < window; i++ {
			if done[i] || waiting(i) {
				continue
			}
			send = append(send[:0], queries[i]...)
			dnsmsg.SetID(send, uint16(i))
			if _, err := conn.Write(send); err != nil {
				// The port is not bound yet: this write sent nothing and
				// reported the ICMP error an earlier one caused, so that
				// one was lost as well.
				time.Sleep(time.Millisecond)
				clear(sentAt)
				break
			}
			sentAt[i] = now
			inflight++
		}
		// Poll fast before the first answer — the socket may not be bound
		// yet and set-up time is a metric — then wait for answers.
		wait := 2 * time.Millisecond
		if left < len(queries) {
			wait = 20 * time.Millisecond
		}
		_ = conn.SetReadDeadline(now.Add(wait))
		n, err := conn.Read(recv)
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				// ECONNREFUSED: nothing listens yet, every send was lost.
				time.Sleep(time.Millisecond)
				clear(sentAt)
			}
			continue
		}
		if n < 2 {
			continue
		}
		i := int(dnsmsg.ID(recv))
		if i >= len(queries) || done[i] {
			continue
		}
		send = append(send[:0], queries[i]...)
		dnsmsg.SetID(send, uint16(i))
		if r := check.Check(recv[:n], send, dnsmsg.RcodeNoError); r != dnsmsg.OK {
			return fmt.Errorf("set-up answer for name %d is invalid: %s", i, r)
		}
		done[i] = true
		left--
	}
	return nil
}

// lib is the in-process target of lib_hit.
type lib struct {
	client *dohpool.Client
	once   sync.Once
}

func (l *lib) sample() (procfs.Sample, error) { return procfs.Read(os.Getpid()) }

func (l *lib) scrape() (promtext.Scrape, error) {
	var buf bytes.Buffer
	if err := l.client.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return promtext.Parse(&buf)
}

func (l *lib) stop() { l.once.Do(func() { _ = l.client.Close() }) }

// startLib builds a default-configured dohpool.Client on the upstream's
// resolvers and looks the hot set up once. The duration is the set-up
// time: dohpool.New to the last warm answer.
func startLib(wl *Workload, up *upstream.Upstream, tab *table, check *dnsmsg.Checker) (*lib, time.Duration, error) {
	start := time.Now()
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM([]byte(up.CAPEM)) {
		return nil, 0, errors.New("upstream CA does not parse")
	}
	cfg := dohpool.Config{TLSConfig: &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}}
	for i, e := range up.Endpoints {
		cfg.Resolvers = append(cfg.Resolvers, dohpool.Resolver{Name: "resolver-" + strconv.Itoa(i), URL: e})
	}
	client, err := dohpool.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	l := &lib{client: client}
	ex := &libExchanger{client: client, domains: tab.domains, check: check, timeout: setupTimeout}
	for i := 0; i < wl.hot; i++ {
		if out := ex.Exchange(uint32(i), 0, nil); out != gen.OK {
			l.stop()
			return nil, 0, fmt.Errorf("library set-up lookup of %s ended with outcome %d", tab.domains[i], out)
		}
	}
	return l, time.Since(start), nil
}

// libExchanger is the library workload's gen.Exchanger: one LookupPool
// call, validated on the Pool it returns (a Pool carries no TTL).
type libExchanger struct {
	client  *dohpool.Client
	domains []string
	check   *dnsmsg.Checker
	timeout time.Duration
	base    time.Time
}

func (l *libExchanger) Exchange(name uint32, _ uint16, st *trace.Stamps) gen.Outcome {
	ctx, cancel := context.WithTimeout(context.Background(), l.timeout)
	defer cancel()
	if st != nil {
		st[1] = int64(time.Since(l.base))
		st[2] = st[1]
	}
	p, err := l.client.LookupPool(ctx, l.domains[name])
	if st != nil {
		st[3] = int64(time.Since(l.base))
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return gen.Timeout
		}
		return gen.Outcome(dnsmsg.WrongRcode) // the wire transports would see SERVFAIL
	}
	if len(p.Addrs) != l.check.Answers {
		return gen.Outcome(dnsmsg.WrongAnswerCount)
	}
	for _, a := range p.Addrs {
		if !a.Is4() || !l.check.IsBenign(a.As4()) {
			return gen.Outcome(dnsmsg.ForeignAddr)
		}
	}
	return gen.OK
}

func (l *libExchanger) Close() {}
