package gen

import (
	"crypto/tls"
	"net"
	"testing"
	"time"

	"dohpool/bench/dnsmsg"
	"dohpool/bench/fakedns"
	"dohpool/bench/trace"
)

const zoneTTL = 150

var benign = [][4]byte{{192, 0, 2, 1}, {192, 0, 2, 2}, {192, 0, 2, 3}, {192, 0, 2, 4}}

// twelve is an honest 12-answer section: three resolvers' four addresses.
func twelve() [][4]byte {
	var out [][4]byte
	for i := 0; i < 3; i++ {
		out = append(out, benign...)
	}
	return out
}

// lies are the ways a scripted server can answer wrongly; every one must
// be counted as a failure on every transport.
var lies = map[string]fakedns.Responder{
	"wrong_id": func(q, out []byte) []byte {
		out = fakedns.Honest(twelve(), zoneTTL)(q, out)
		out[1] ^= 0x40 // a bit above the UDP slot index
		return out
	},
	"empty_answer":   fakedns.Honest(nil, zoneTTL),
	"attacker_addr":  fakedns.Honest(append(twelve()[:11:11], [4]byte{198, 18, 0, 1}), zoneTTL),
	"ttl_above_zone": fakedns.Honest(twelve(), zoneTTL+1),
	"ttl_zero":       fakedns.Honest(twelve(), 0),
	"wrong_rcode": func(q, out []byte) []byte {
		out = fakedns.Honest(nil, zoneTTL)(q, out)
		out[3] |= dnsmsg.RcodeServFail
		return out
	},
	"not_a_response": func(q, out []byte) []byte {
		out = fakedns.Honest(twelve(), zoneTTL)(q, out)
		out[2] &^= 0x80
		return out
	},
	"other_question": func(q, out []byte) []byte {
		out = fakedns.Honest(twelve(), zoneTTL)(q, out)
		out[13] ^= 0x01 // first letter of the name
		return out
	},
	"dropped": func(q, out []byte) []byte { return nil },
}

type transport struct {
	name string
	// connect reaches srv and returns the worker loop, which runs until
	// the control stops it.
	connect func(t *testing.T, srv *fakedns.Server, o Options, check *dnsmsg.Checker) func() *Result
}

func udpTransport(name string, shape UDPShape) transport {
	return transport{name, func(t *testing.T, srv *fakedns.Server, o Options, check *dnsmsg.Checker) func() *Result {
		addr, err := net.ResolveUDPAddr("udp", srv.UDPAddr)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return func() *Result { return UDP(o, conn, check, shape) }
	}}
}

func streamTransport(name string, dial func(srv *fakedns.Server) (net.Conn, error)) transport {
	return transport{name, func(t *testing.T, srv *fakedns.Server, o Options, check *dnsmsg.Checker) func() *Result {
		ex, err := NewStream(func() (net.Conn, error) { return dial(srv) }, o.Names, check, o.Timeout, o.Base)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Close)
		return func() *Result { return PingPong(o, ex) }
	}}
}

var transports = []transport{
	udpTransport("udp_pingpong", UDPShape{Window: 1}),
	udpTransport("udp_window8", UDPShape{Window: 8}),
	udpTransport("udp_burst32", UDPShape{Window: 32, Burst: true}),
	streamTransport("tcp", func(srv *fakedns.Server) (net.Conn, error) { return net.Dial("tcp", srv.TCPAddr) }),
	streamTransport("dot", func(srv *fakedns.Server) (net.Conn, error) {
		return tls.Dial("tcp", srv.TLSAddr, srv.ClientTLS)
	}),
	{"doh", func(t *testing.T, srv *fakedns.Server, o Options, check *dnsmsg.Checker) func() *Result {
		client := NewDoHClient(srv.ClientTLS, o.Timeout)
		t.Cleanup(client.CloseIdleConnections)
		return func() *Result { return PingPong(o, NewDoH(client, srv.DoHURL, o.Names, check, o.Base)) }
	}},
}

// drive runs one worker against a server scripted with respond for about
// 150 ms of one measured segment, with a query timeout well inside it.
func drive(t *testing.T, tr transport, respond fakedns.Responder, rec *trace.Recorder) *Result {
	t.Helper()
	return driveFor(t, tr, respond, rec, 150*time.Millisecond, 40*time.Millisecond)
}

// driveFor runs one worker against a server scripted with respond for one
// measured segment of the given length, then stops it.
func driveFor(t *testing.T, tr transport, respond fakedns.Responder, rec *trace.Recorder, segment, timeout time.Duration) *Result {
	t.Helper()
	srv, err := fakedns.Start(respond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close) // after the transport's own cleanup

	names := &Names{}
	for _, n := range []string{"pool.ntppool.test.", "pool-1.ntppool.test."} {
		q, err := dnsmsg.Query(n)
		if err != nil {
			t.Fatal(err)
		}
		names.Queries = append(names.Queries, q)
		names.Rcode = append(names.Rcode, dnsmsg.RcodeNoError)
	}
	ctl := NewControl()
	ctl.Set(0)
	ctl.SetTraced(rec != nil)
	o := Options{Control: ctl, Names: names, Picks: []uint32{0, 1, 1}, Segments: 1, MaxSamples: 1 << 16,
		Timeout: timeout, Base: time.Now(), Recorder: rec}
	check := &dnsmsg.Checker{Answers: 12, Benign: benign, MaxTTL: zoneTTL}

	run := tr.connect(t, srv, o, check)
	done := make(chan *Result, 1)
	go func() { done <- run() }()
	time.Sleep(segment)
	ctl.Set(PhaseStop)
	select {
	case res := <-done:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop")
		return nil
	}
}

func TestHonestServerIsAllValid(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder(16, 0)
			res := drive(t, tr, fakedns.Honest(twelve(), zoneTTL), rec)
			seg := res.Segments[0]
			if seg.Attempted == 0 || seg.Valid != seg.Attempted || res.Failed() != 0 {
				t.Fatalf("attempted %d valid %d failed %d (timeouts %d io %d invalid %v)",
					seg.Attempted, seg.Valid, res.Failed(), res.Timeouts, res.IOErrors, res.Invalid)
			}
			if got := len(res.Latencies(0)); uint64(got) != seg.Valid {
				t.Errorf("%d latency samples for %d valid answers", got, seg.Valid)
			}
			if rec.Count == 0 {
				t.Error("traced run recorded no request")
			}
			for i, d := range rec.Total {
				if d < 0 {
					t.Errorf("phase %s has negative total %d", trace.Phases[i], d)
				}
			}
		})
	}
}

func TestEveryLieIsAFailure(t *testing.T) {
	for _, tr := range transports {
		for lie, respond := range lies {
			t.Run(tr.name+"/"+lie, func(t *testing.T) {
				t.Parallel()
				res := drive(t, tr, respond, nil)
				seg := res.Segments[0]
				if seg.Attempted == 0 {
					t.Fatal("nothing attempted")
				}
				if seg.Valid != 0 {
					t.Fatalf("%d of %d lying answers were accepted (invalid %v)", seg.Valid, seg.Attempted, res.Invalid)
				}
				if got := res.Timeouts + res.IOErrors + sum(res.Invalid[:]); got != seg.Attempted {
					t.Errorf("causes add up to %d, attempted %d", got, seg.Attempted)
				}
			})
		}
	}
}

// A query is booked to the segment it was sent in: one that is dropped
// fails that segment even when its timeout runs out after the segment, and
// after the run, has ended. The worker does not return before it has.
func TestDropsThatTimeOutAfterTheRunAreFailures(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			res := driveFor(t, tr, lies["dropped"], nil, 50*time.Millisecond, 200*time.Millisecond)
			seg := res.Segments[0]
			if seg.Attempted == 0 {
				t.Fatal("the dropped queries of the segment were not counted as attempted")
			}
			if seg.Valid != 0 || res.Failed() != seg.Attempted || res.Timeouts != seg.Attempted {
				t.Errorf("attempted %d valid %d failed %d timeouts %d io %d", seg.Attempted, seg.Valid, res.Failed(), res.Timeouts, res.IOErrors)
			}
		})
	}
}

func sum(xs []uint64) (s uint64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// An expected SERVFAIL is a valid answer, and an untimed name is counted
// but leaves no latency sample.
func TestExpectedServfailIsValidAndUntimed(t *testing.T) {
	srv, err := fakedns.Start(func(q, out []byte) []byte {
		out = fakedns.Honest(nil, zoneTTL)(q, out)
		out[3] |= dnsmsg.RcodeServFail
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q, _ := dnsmsg.Query("nx-1.nxzone.test.")
	names := &Names{Queries: [][]byte{q}, Rcode: []uint8{dnsmsg.RcodeServFail}, Timed: []bool{false}}
	ctl := NewControl()
	ctl.Set(0)
	o := Options{Control: ctl, Names: names, Picks: []uint32{0}, Segments: 1, MaxSamples: 1024,
		Timeout: time.Second, Base: time.Now()}
	run := udpTransport("", UDPShape{Window: 8}).connect(t, srv, o, &dnsmsg.Checker{Answers: 12, Benign: benign, MaxTTL: zoneTTL})
	done := make(chan *Result, 1)
	go func() { done <- run() }()
	time.Sleep(50 * time.Millisecond)
	ctl.Set(PhaseStop)
	res := <-done
	if seg := res.Segments[0]; seg.Valid == 0 || seg.Valid != seg.Attempted {
		t.Fatalf("attempted %d valid %d", seg.Attempted, seg.Valid)
	}
	if n := len(res.Latencies(0)); n != 0 {
		t.Errorf("%d samples for an untimed name", n)
	}
}

// Queries are booked to the segment that is current when they are sent, and
// each segment's samples can be read back on their own.
func TestSegmentsPartitionSamples(t *testing.T) {
	srv, err := fakedns.Start(fakedns.Honest(twelve(), zoneTTL))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q, _ := dnsmsg.Query("pool.ntppool.test.")
	names := &Names{Queries: [][]byte{q}, Rcode: []uint8{0}}
	ctl := NewControl()
	o := Options{Control: ctl, Names: names, Picks: []uint32{0}, Segments: 3, MaxSamples: 1 << 20,
		Timeout: time.Second, Base: time.Now()}
	run := udpTransport("", UDPShape{Window: 1}).connect(t, srv, o, &dnsmsg.Checker{Answers: 12, Benign: benign, MaxTTL: zoneTTL})
	done := make(chan *Result, 1)
	go func() { done <- run() }()
	for _, phase := range []int32{PhaseWarmup, 0, 2, PhaseStop} { // segment 1 is skipped
		ctl.Set(phase)
		time.Sleep(30 * time.Millisecond)
	}
	res := <-done
	var total int
	for seg := range res.Segments {
		n := len(res.Latencies(seg))
		if uint64(n) != res.Segments[seg].Valid {
			t.Errorf("segment %d: %d samples, %d valid", seg, n, res.Segments[seg].Valid)
		}
		total += n
	}
	if res.Segments[0].Valid == 0 || res.Segments[1].Valid != 0 || res.Segments[2].Valid == 0 {
		t.Errorf("segments %+v", res.Segments)
	}
	if total == 0 {
		t.Error("no samples at all")
	}
}
