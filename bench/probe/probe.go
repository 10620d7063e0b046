// Package probe times calls into single layers of dohpool from inside the
// runner's process. A probe says what one layer costs on this machine with
// nothing else in the way; which end-to-end metric it should move, and on
// which workload, is written down in bench/README.md.
//
// Import rule: probes touch only what ROADMAP item 2 keeps — dohpool's
// grouped Config, internal/{dnswire,doh,udpbatch,testpki}, dnscache.Store
// and the Algorithm 1 functions of internal/core — so those refactors can
// land without editing the benchmark.
package probe

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dohpool"
	"dohpool/bench/trace"
	"dohpool/internal/core"
	"dohpool/internal/dnscache"
	"dohpool/internal/dnswire"
	"dohpool/internal/doh"
	"dohpool/internal/testpki"
	"dohpool/internal/udpbatch"
)

// Cost is what one call of the probed function costs.
type Cost struct {
	Ns     float64 // median over batches of time per call
	Allocs float64 // heap allocations per call, averaged over all batches
}

const (
	batches     = 7
	batchTarget = 6 * time.Millisecond
)

// Measure times fn: it sizes a batch to about batchTarget, runs several
// and reports the median batch. Each batch becomes one span of log.
func Measure(name string, log *trace.Log, base time.Time, fn func()) Cost {
	fn() // lazy set-up inside fn happens here
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= batchTarget/4 || n >= 1<<24 {
			n = int(float64(n)*float64(batchTarget)/float64(d+1)) + 1
			break
		}
		n *= 4
	}
	per := make([]float64, batches)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		end := time.Now()
		per[b] = float64(end.Sub(start)) / float64(n)
		if log != nil {
			log.Add("probe:"+name, "", int64(start.Sub(base)), int64(end.Sub(base)))
		}
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(per)
	return Cost{Ns: per[batches/2], Allocs: float64(after.Mallocs-before.Mallocs) / float64(n*batches)}
}

// Set is the outcome of all probes, by per-layer metric name.
type Set map[string]float64

func (s Set) put(name string, c Cost, unitNs float64) {
	s[name] = c.Ns / unitNs
}

// Upstream says where a probe that needs real resolvers finds them.
type Upstream struct {
	Endpoints []string
	CAPEM     []byte
	Domain    string
}

// All runs every probe. log and base may be zero for an untraced caller.
func All(up Upstream, log *trace.Log, base time.Time) (Set, error) {
	s := make(Set)
	m := func(name string, fn func()) Cost { return Measure(name, log, base, fn) }

	if err := wireProbes(s, m); err != nil {
		return nil, err
	}
	storeProbes(s, m)

	lists := answerLists()
	c := m("core.generate_pool", func() {
		if _, err := core.GeneratePool(lists); err != nil {
			panic(err) // fixed, valid input
		}
	})
	s.put("core.generate_pool_ns", c, 1)
	s["core.generate_pool_allocs"] = c.Allocs

	if err := dohProbes(s, m); err != nil {
		return nil, err
	}
	if err := udpbatchProbes(s, m); err != nil {
		return nil, err
	}
	if err := lookupProbe(s, m, up); err != nil {
		return nil, err
	}
	return s, nil
}

type measure func(name string, fn func()) Cost

// answerLists is what three resolvers return for a pool name: four
// addresses each.
func answerLists() [][]netip.Addr {
	lists := make([][]netip.Addr, 3)
	for r := range lists {
		for k := 0; k < 4; k++ {
			lists[r] = append(lists[r], netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + (r+k)%8)}))
		}
	}
	return lists
}

// poolResponse is the 12-answer message dohpoold sends for a pool name.
func poolResponse(query *dnswire.Message) *dnswire.Message {
	resp := dnswire.NewResponse(query)
	name := query.Question().Name
	for _, l := range answerLists() {
		for _, a := range l {
			resp.Answers = append(resp.Answers, dnswire.AddressRecord(name, a, 150))
		}
	}
	return resp
}

func wireProbes(s Set, m measure) error {
	query, err := dnswire.NewQuery("pool.ntppool.test.", dnswire.TypeA)
	if err != nil {
		return err
	}
	queryWire, err := query.Encode()
	if err != nil {
		return err
	}
	resp := poolResponse(query)
	respWire, err := resp.Encode()
	if err != nil {
		return err
	}
	offsets, err := dnswire.AnswerTTLOffsets(respWire)
	if err != nil {
		return err
	}
	out := make([]byte, len(respWire))

	for _, p := range []struct {
		name string
		fn   func()
	}{
		{"dnswire.decode_query", func() { mustDecode(queryWire) }},
		{"dnswire.decode_resp", func() { mustDecode(respWire) }},
		{"dnswire.encode_resp", func() {
			if _, err := resp.Encode(); err != nil {
				panic(err)
			}
		}},
		// What a cached hit does to the pre-encoded answer: copy, then
		// patch ID, flags and TTLs.
		{"dnswire.patch", func() {
			copy(out, respWire)
			dnswire.PatchID(out, 0x1234)
			dnswire.EchoFlags(out, queryWire)
			dnswire.PatchAnswerTTLs(out, offsets, 149)
		}},
	} {
		c := m(p.name, p.fn)
		s.put(p.name+"_ns", c, 1)
		s[p.name+"_allocs"] = c.Allocs
	}
	return nil
}

func mustDecode(wire []byte) {
	if _, err := dnswire.Decode(wire); err != nil {
		panic(err) // the benchmark encoded it itself
	}
}

// storeProbes time dnscache.Store with two goroutines, as the daemon's two
// UDP readers use it, at the hot-set size and at a zone-sized key count.
func storeProbes(s Set, m measure) {
	for _, keys := range []int{17, 4096} {
		store := dnscache.NewShardedStore[*int](2*keys, 0, nil)
		names := make([]string, keys)
		val := new(int)
		for i := range names {
			names[i] = "pool-" + strconv.Itoa(i) + ".ntppool.test.|A"
			store.Put(names[i], val, time.Hour)
		}
		suffix := "_" + strconv.Itoa(keys)
		get, stop := pair(func(i int) {
			if _, _, ok := store.Get(names[i%keys]); !ok {
				panic("dnscache probe: key vanished")
			}
		})
		s.put("dnscache.store_get_ns"+suffix, m("dnscache.store_get"+suffix, get), 2*pairOps)
		stop()
		put, stop := pair(func(i int) { store.Put(names[i%keys], val, time.Hour) })
		s.put("dnscache.store_put_ns"+suffix, m("dnscache.store_put"+suffix, put), 2*pairOps)
		stop()
	}
}

// pairOps is how many ops each of pair's goroutines runs per call: enough
// that handing the work over is a small part of the time.
const pairOps = 256

// pair returns a function that runs op pairOps times on each of two
// goroutines at once and waits for both; the time per op is the call's
// time over 2×pairOps. stop ends the goroutines.
func pair(op func(i int)) (call, stop func()) {
	var wg sync.WaitGroup
	work := [2]chan int{make(chan int), make(chan int)}
	for g := range work {
		go func() {
			for first := range work[g] {
				for i := 0; i < pairOps; i++ {
					op(first + i*7)
				}
				wg.Done()
			}
		}()
	}
	round := 0
	call = func() {
		wg.Add(2)
		work[0] <- round
		work[1] <- round + 3
		round += pairOps
		wg.Wait()
	}
	return call, func() { close(work[0]); close(work[1]) }
}

func dohProbes(s Set, m measure) error {
	responder := doh.ResponderFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return poolResponse(q), nil
	})
	query, err := dnswire.NewQuery("pool.ntppool.test.", dnswire.TypeA)
	if err != nil {
		return err
	}
	queryWire, err := query.Encode()
	if err != nil {
		return err
	}

	// The handler alone, on a recorder: decode, respond, encode, headers.
	handler := doh.NewHandler(responder)
	c := m("doh.handler", func() {
		req := httptest.NewRequest(http.MethodPost, doh.DefaultPath, bytes.NewReader(queryWire))
		req.Header.Set("Content-Type", doh.MediaType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("doh handler probe: status %d", rec.Code))
		}
	})
	s.put("doh.handler_us", c, 1e3)
	s["doh.handler_allocs"] = c.Allocs

	// One exchange with a resolver that adds no delay: what each of the N
	// exchanges of a generation costs this process.
	ca, err := testpki.NewCA()
	if err != nil {
		return err
	}
	serverTLS, err := ca.ServerTLS("127.0.0.1")
	if err != nil {
		return err
	}
	srv, err := doh.NewServer("127.0.0.1:0", serverTLS, responder)
	if err != nil {
		return err
	}
	defer srv.Close()
	client := doh.NewClient(doh.WithTLSConfig(ca.ClientTLS()))
	var exErr error
	c = m("doh.exchange", func() {
		if _, err := client.Exchange(context.Background(), query, srv.URL()); err != nil {
			exErr = err
		}
	})
	if exErr != nil {
		return fmt.Errorf("doh exchange probe: %w", exErr)
	}
	s.put("doh.exchange_us", c, 1e3)
	s["doh.exchange_allocs"] = c.Allocs
	return nil
}

// udpbatchProbes move datagrams across a loopback socket pair through
// udpbatch.Conn, one per call and sixteen per call, and report the time
// per datagram (one write plus one read).
func udpbatchProbes(s Set, m measure) error {
	for _, batch := range []int{1, 16} {
		rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return err
		}
		tx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			rx.Close()
			return err
		}
		cost, err := udpbatchProbe(m, rx, tx, batch)
		rx.Close()
		tx.Close()
		if err != nil {
			return err
		}
		s.put("udpbatch.rw_ns_b"+strconv.Itoa(batch), cost, float64(batch))
	}
	return nil
}

func udpbatchProbe(m measure, rx, tx *net.UDPConn, batch int) (Cost, error) {
	rconn, err := udpbatch.New(rx, batch)
	if err != nil {
		return Cost{}, err
	}
	wconn, err := udpbatch.New(tx, batch)
	if err != nil {
		return Cost{}, err
	}
	dst := rx.LocalAddr().(*net.UDPAddr)
	newDgs := func() []*udpbatch.Datagram {
		dgs := make([]*udpbatch.Datagram, batch)
		for i := range dgs {
			dgs[i] = &udpbatch.Datagram{Buf: make([]byte, 512), N: 40,
				Addr: &net.UDPAddr{IP: append(make(net.IP, 0, 16), dst.IP.To4()...), Port: dst.Port}}
		}
		return dgs
	}
	out, in := newDgs(), newDgs()
	var ioErr error
	c := m("udpbatch.rw_b"+strconv.Itoa(batch), func() {
		if n, err := wconn.WriteBatch(out); err != nil || n != batch {
			ioErr = fmt.Errorf("udpbatch probe: wrote %d of %d: %v", n, batch, err)
			return
		}
		for got := 0; got < batch; {
			n, err := rconn.ReadBatch(in)
			if err != nil {
				ioErr = err
				return
			}
			got += n
		}
	})
	return c, ioErr
}

// lookupProbe times the library's cached hit: Client.LookupPool on a name
// that one earlier lookup has generated.
func lookupProbe(s Set, m measure, up Upstream) error {
	pool, err := testpki.PoolFromPEM(up.CAPEM)
	if err != nil {
		return err
	}
	cfg := dohpool.Config{TLSConfig: &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}}
	for i, url := range up.Endpoints {
		cfg.Resolvers = append(cfg.Resolvers, dohpool.Resolver{Name: "resolver-" + strconv.Itoa(i), URL: url})
	}
	client, err := dohpool.New(cfg)
	if err != nil {
		return err
	}
	defer client.Close()
	ctx := context.Background()
	if _, err := client.LookupPool(ctx, up.Domain); err != nil {
		return fmt.Errorf("lookup probe warm-up: %w", err)
	}
	var lookErr error
	c := m("engine.lookup_hit", func() {
		if p, err := client.LookupPool(ctx, up.Domain); err != nil {
			lookErr = fmt.Errorf("lookup probe: %w", err)
		} else if len(p.Addrs) != 12 {
			lookErr = fmt.Errorf("lookup probe: %d addresses", len(p.Addrs))
		}
	})
	if lookErr != nil {
		return lookErr
	}
	s.put("engine.lookup_hit_ns", c, 1)
	s["engine.lookup_hit_allocs"] = c.Allocs
	return nil
}
