package core

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/metrics"
)

// blockingQuerier answers like its inner querier, except that exchanges
// for names starting with "blocked" wait until release is closed (or the
// exchange's context ends). seen records which blocked names have
// reached it.
type blockingQuerier struct {
	inner   Querier
	release chan struct{}

	mu   sync.Mutex
	seen map[string]bool
}

func newBlockingQuerier(inner Querier) *blockingQuerier {
	return &blockingQuerier{inner: inner, release: make(chan struct{}), seen: make(map[string]bool)}
}

func (b *blockingQuerier) Query(ctx context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	if strings.HasPrefix(name, "blocked") {
		b.mu.Lock()
		b.seen[name] = true
		b.mu.Unlock()
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.inner.Query(ctx, url, name, typ)
}

func (b *blockingQuerier) blockedNames() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen)
}

// udpClient is one client socket that sends without waiting and collects
// answers by transaction ID.
type udpClient struct {
	t    *testing.T
	conn net.Conn
}

func dialUDPClient(t *testing.T, addr string) *udpClient {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &udpClient{t: t, conn: conn}
}

func (c *udpClient) send(id uint16, name string) {
	c.t.Helper()
	if _, err := c.conn.Write(rawQueryBytes(c.t, id, name, dnswire.TypeA, 0, true, false)); err != nil {
		c.t.Fatal(err)
	}
}

// collect reads answers until want have arrived or the wait runs out,
// and returns how often each ID was answered and with which rcode.
func (c *udpClient) collect(want int, wait time.Duration) (count map[uint16]int, rcode map[uint16]int) {
	count, rcode = make(map[uint16]int), make(map[uint16]int)
	buf := make([]byte, 4096)
	_ = c.conn.SetReadDeadline(time.Now().Add(wait))
	for got := 0; got < want; got++ {
		n, err := c.conn.Read(buf)
		if err != nil || n < 12 {
			break
		}
		id := uint16(buf[0])<<8 | uint16(buf[1])
		count[id]++
		rcode[id] = int(buf[3] & 0x0F)
	}
	return count, rcode
}

// TestFrontendMissesDoNotQueueBehindEachOther blocks the generations of
// eight names — twice the worker pool the frontend used to have — and
// checks that a cached name and a ninth, fast-resolving cold name are
// still answered at once, over a backend with the wire fast path and
// over one without. On release every blocked query gets exactly one
// answer.
func TestFrontendMissesDoNotQueueBehindEachOther(t *testing.T) {
	const blocked = 8
	for _, wired := range []bool{true, false} {
		t.Run(fmt.Sprintf("wire=%v", wired), func(t *testing.T) {
			q := newBlockingQuerier(&staticQuerier{lists: threeResolverLists()})
			eng := engineUnderTest(t, q, EngineConfig{DisableHedging: true})
			var backend Backend = eng
			if !wired {
				backend = slowOnlyBackend{eng}
			}
			reg := metrics.New()
			fe, err := NewFrontendWithConfig("127.0.0.1:0", backend, FrontendConfig{Timeout: 5 * time.Second, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = fe.Close() })
			frontendQuery(t, fe.Addr(), "cached.test.", dnswire.TypeA)

			parked := dialUDPClient(t, fe.Addr())
			for i := 0; i < blocked; i++ {
				parked.send(uint16(100+i), fmt.Sprintf("blocked-%d.test.", i))
			}
			waitFor(t, "all blocked generations to start", func() bool { return q.blockedNames() == blocked })
			mustContain(t, exposition(t, reg), fmt.Sprintf(`%s{proto="udp"} %d`, MetricFrontendInflight, blocked))

			other := dialUDPClient(t, fe.Addr())
			other.send(1, "cached.test.")
			other.send(2, "ninth.test.")
			// No deadline decides this: the eight stay blocked until the
			// release below, so both answers arriving at all — however slow
			// the box — is the proof that neither queued behind them.
			count, rcode := other.collect(2, 3*time.Second)
			for id, what := range map[uint16]string{1: "cached name", 2: "ninth cold name"} {
				if count[id] != 1 || rcode[id] != int(dnswire.RCodeSuccess) {
					t.Errorf("%s: %d answers (rcode %d) while %d generations are blocked, want 1 NOERROR",
						what, count[id], rcode[id], blocked)
				}
			}
			mustContain(t, exposition(t, reg), fmt.Sprintf(`%s{proto="udp"} %d`, MetricFrontendInflight, blocked))

			close(q.release)
			count, rcode = parked.collect(blocked, 3*time.Second)
			for i := 0; i < blocked; i++ {
				id := uint16(100 + i)
				if count[id] != 1 || rcode[id] != int(dnswire.RCodeSuccess) {
					t.Errorf("blocked query %d: %d answers (rcode %d), want exactly 1 NOERROR", i, count[id], rcode[id])
				}
			}
			if extra, _ := parked.collect(1, 50*time.Millisecond); len(extra) != 0 {
				t.Errorf("answers beyond one per query: %v", extra)
			}
			// The warm-up, the eight, the cached and the ninth: each counted
			// once, none left in flight.
			mustContain(t, exposition(t, reg),
				fmt.Sprintf(`%s{proto="udp"} %d`, MetricFrontendQueries, blocked+3),
				fmt.Sprintf(`%s{rcode="NOERROR"} %d`, MetricFrontendResponses, blocked+3),
				MetricFrontendInflight+`{proto="udp"} 0`,
				MetricFrontendDropped+" 0",
			)
		})
	}
}

// TestFrontendShedsBeyondUDPQueue fills the UDPQueue budget with blocked
// generations and checks that every further datagram is dropped and
// counted in all three places, and that the admitted ones are still
// answered.
func TestFrontendShedsBeyondUDPQueue(t *testing.T) {
	const queue, extra = 4, 3
	q := newBlockingQuerier(&staticQuerier{lists: threeResolverLists()})
	eng := engineUnderTest(t, q, EngineConfig{DisableHedging: true})
	reg := metrics.New()
	fe, err := NewFrontendWithConfig("127.0.0.1:0", eng, FrontendConfig{
		Timeout: 5 * time.Second, UDPQueue: queue, UDPSockets: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })

	c := dialUDPClient(t, fe.Addr())
	for i := 0; i < queue; i++ {
		c.send(uint16(100+i), fmt.Sprintf("blocked-%d.test.", i))
	}
	waitFor(t, "the budget to fill", func() bool { return q.blockedNames() == queue })
	for i := 0; i < extra; i++ {
		c.send(uint16(200+i), fmt.Sprintf("blocked-late-%d.test.", i))
	}
	waitFor(t, "the excess to be shed", func() bool { return fe.Dropped() == extra })
	mustContain(t, exposition(t, reg),
		fmt.Sprintf("%s %d", MetricFrontendDropped, extra),
		fmt.Sprintf(`%s{socket="0"} %d`, MetricFrontendUDPSocketDrops, extra),
	)

	close(q.release)
	count, _ := c.collect(queue+extra, 500*time.Millisecond)
	for i := 0; i < queue; i++ {
		if count[uint16(100+i)] != 1 {
			t.Errorf("admitted query %d: %d answers, want 1", i, count[uint16(100+i)])
		}
	}
	for i := 0; i < extra; i++ {
		if count[uint16(200+i)] != 0 {
			t.Errorf("shed query %d was answered", i)
		}
	}
	if got := fe.Dropped(); got != extra {
		t.Errorf("Dropped = %d after release, want %d", got, extra)
	}
}

// TestFrontendCloseWithParkedQueries closes a frontend while eight
// datagrams wait on generations that never finish: Close must return
// once their common Timeout has run out (a worker pool of four needed
// two rounds of it), leave no goroutine behind, and account for every
// datagram as answered or dropped. The backend is the bare Generator,
// which has neither cache nor coalescing.
func TestFrontendCloseWithParkedQueries(t *testing.T) {
	const parked, timeout = 8, 500 * time.Millisecond
	before := runtime.NumGoroutine()
	q := newBlockingQuerier(&staticQuerier{lists: threeResolverLists()})
	gen, err := NewGenerator(Config{Resolvers: threeEndpoints(), Querier: q})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendWithConfig("127.0.0.1:0", gen, FrontendConfig{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	c := dialUDPClient(t, fe.Addr())
	for i := 0; i < parked; i++ {
		c.send(uint16(100+i), fmt.Sprintf("blocked-%d.test.", i))
	}
	waitFor(t, "all datagrams to be parked", func() bool { return q.blockedNames() == parked })

	start := time.Now()
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > timeout+timeout/2 {
		t.Errorf("Close took %v with %d parked queries, want within their %v Timeout", took, parked, timeout)
	}
	answered, _ := c.collect(parked, 50*time.Millisecond)
	if got := uint64(len(answered)) + fe.Dropped(); got != parked {
		t.Errorf("%d answered + %d dropped, want %d in total", len(answered), fe.Dropped(), parked)
	}
	waitFor(t, "the frontend's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}
