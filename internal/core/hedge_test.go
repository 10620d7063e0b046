package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/metrics"
)

// scriptedQuerier is a Querier whose every call — an "attempt", numbered
// in arrival order — blocks until the test tells it how to end, or its
// context does. A test drives the hedging layer by events: it waits for an
// attempt to be blocked in the querier, then releases it with an outcome.
type scriptedQuerier struct {
	mu       sync.Mutex
	attempts []*scriptedAttempt
	started  int // calls so far
}

type scriptedAttempt struct {
	blocked   chan struct{} // closed once the attempt is inside Query
	outcome   chan error    // what the test makes of it: nil answers
	returned  chan struct{} // closed when Query returns
	cancelled atomic.Bool   // its context ended before the test released it

	// Written before blocked is closed, read after.
	ctx       context.Context
	start     time.Time
	goroutine string
}

// goroutineID names the calling goroutine ("goroutine 42"), from the
// header line of its stack trace.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.Index(buf, []byte(" [")); i > 0 {
		return string(buf[:i])
	}
	return string(buf)
}

// attempt returns the i-th call's record, creating records as needed so
// that test and querier can ask for one in either order.
func (s *scriptedQuerier) attempt(i int) *scriptedAttempt {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.attempts) <= i {
		s.attempts = append(s.attempts, &scriptedAttempt{
			blocked: make(chan struct{}), outcome: make(chan error, 1), returned: make(chan struct{}),
		})
	}
	return s.attempts[i]
}

func (s *scriptedQuerier) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started
}

func (s *scriptedQuerier) Query(ctx context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	s.mu.Lock()
	i := s.started
	s.started++
	s.mu.Unlock()
	a := s.attempt(i)
	a.ctx, a.start, a.goroutine = ctx, time.Now(), goroutineID()
	close(a.blocked)
	defer close(a.returned)
	select {
	case err := <-a.outcome:
		if err != nil {
			return nil, err
		}
		query, err := dnswire.NewQuery(name, typ)
		if err != nil {
			return nil, err
		}
		resp := dnswire.NewResponse(query)
		// The answer names the attempt that gave it.
		resp.Answers = append(resp.Answers, dnswire.AddressRecord(name, netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i)}), 60))
		return resp, nil
	case <-ctx.Done():
		a.cancelled.Store(true)
		return nil, ctx.Err()
	}
}

// answeredBy reads which attempt's answer resp carries.
func answeredBy(resp *dnswire.Message) int {
	if resp == nil || len(resp.AnswerAddrs()) != 1 {
		return -1
	}
	return int(resp.AnswerAddrs()[0].As4()[3]) - 1
}

type hedgeResult struct {
	resp *dnswire.Message
	err  error
}

// waitClosed fails the test unless c closes within the test's tick.
func waitClosed(t *testing.T, what string, c <-chan struct{}) {
	t.Helper()
	select {
	case <-c:
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestHedgedQuerierSemantics pins what one hedgedQuerier.Query does, case
// by case, against a querier the test scripts event by event.
func TestHedgedQuerierSemantics(t *testing.T) {
	const delay = 20 * time.Millisecond
	errPrimary, errBackup := errors.New("primary failed"), errors.New("backup failed")
	type ctxKey struct{}

	type fixture struct {
		t      *testing.T
		q      *scriptedQuerier
		h      *hedgedQuerier
		cancel context.CancelFunc
		ctx    context.Context
		start  time.Time
		caller string // the goroutine Query was called on
		done   chan hedgeResult
	}
	// start runs one Query on a goroutine of its own (the "caller") and
	// returns once the primary attempt is blocked in the querier.
	start := func(t *testing.T, h *hedgedQuerier) *fixture {
		t.Helper()
		f := &fixture{t: t, q: h.inner.(*scriptedQuerier), h: h, done: make(chan hedgeResult, 1)}
		f.ctx, f.cancel = context.WithCancel(context.WithValue(context.Background(), ctxKey{}, t.Name()))
		t.Cleanup(f.cancel)
		f.start = time.Now()
		callerID := make(chan string, 1)
		go func() {
			callerID <- goroutineID()
			resp, err := h.Query(f.ctx, "u0", "pool.test.", dnswire.TypeA)
			f.done <- hedgeResult{resp, err}
		}()
		f.caller = <-callerID
		waitClosed(t, "the primary attempt", f.q.attempt(0).blocked)
		return f
	}
	finish := func(f *fixture) hedgeResult {
		f.t.Helper()
		select {
		case r := <-f.done:
			return r
		case <-time.After(2 * time.Second):
			f.t.Fatal("Query did not return within the test's tick")
			return hedgeResult{}
		}
	}
	// regs holds each hedged querier's metrics, where hedge wins are counted.
	regs := make(map[*hedgedQuerier]*metrics.Registry)
	hedged := func(fixed time.Duration) *hedgedQuerier {
		h := &hedgedQuerier{inner: &scriptedQuerier{}, health: NewHealthTracker(0, 0, nil), fixed: fixed}
		regs[h] = metrics.New()
		h.health.instrument(newHealthInstruments(regs[h], []Endpoint{{Name: "r0", URL: "u0"}}))
		return h
	}
	counters := func(h *hedgedQuerier) ResolverHealth {
		return h.health.Snapshot([]Endpoint{{URL: "u0"}})[0]
	}
	wantHedgeWins := func(t *testing.T, h *hedgedQuerier, n int) {
		t.Helper()
		mustContain(t, exposition(t, regs[h]), fmt.Sprintf(`%s{resolver="r0"} %d`, MetricResolverHedgeWins, n))
	}

	t.Run("primary answers before the delay", func(t *testing.T) {
		h := hedged(time.Hour)
		f := start(t, h)
		if got := f.q.attempt(0).goroutine; got != f.caller {
			t.Errorf("the primary attempt ran on %s, want the caller's own %s", got, f.caller)
		}
		f.q.attempt(0).outcome <- nil
		r := finish(f)
		if r.err != nil || answeredBy(r.resp) != 0 {
			t.Fatalf("Query = attempt %d, %v; want the primary's answer", answeredBy(r.resp), r.err)
		}
		if got := f.q.calls(); got != 1 {
			t.Errorf("%d inner calls, want 1", got)
		}
		if c := counters(h); c.Hedges != 0 || c.Successes != 1 || c.Failures != 0 {
			t.Errorf("hedges %d successes %d failures %d, want 0/1/0", c.Hedges, c.Successes, c.Failures)
		}
		wantHedgeWins(t, h, 0)
	})

	t.Run("primary slow: one backup, no earlier than the delay, primary wins", func(t *testing.T) {
		h := hedged(delay)
		f := start(t, h)
		waitClosed(t, "the backup attempt", f.q.attempt(1).blocked)
		if since := f.q.attempt(1).start.Sub(f.start); since < delay {
			t.Errorf("backup started %v after the query, before the %v delay", since, delay)
		}
		if c := counters(h); c.Hedges != 1 {
			t.Errorf("hedges = %d once the backup is out, want 1", c.Hedges)
		}
		if p, b := f.q.attempt(0).goroutine, f.q.attempt(1).goroutine; p != f.caller || b == f.caller {
			t.Errorf("primary on %s, backup on %s, caller is %s: only the backup gets a goroutine of its own", p, b, f.caller)
		}
		f.q.attempt(0).outcome <- nil
		r := finish(f)
		if r.err != nil || answeredBy(r.resp) != 0 {
			t.Fatalf("Query = attempt %d, %v; want the primary's answer", answeredBy(r.resp), r.err)
		}
		waitClosed(t, "the losing backup to be cancelled", f.q.attempt(1).returned)
		if !f.q.attempt(1).cancelled.Load() {
			t.Error("the backup was not cancelled when the primary won")
		}
		if got := f.q.calls(); got != 2 {
			t.Errorf("%d inner calls, want exactly 2", got)
		}
		if c := counters(h); c.Hedges != 1 || c.Successes != 1 || c.Failures != 0 {
			t.Errorf("hedges %d successes %d failures %d, want 1/1/0", c.Hedges, c.Successes, c.Failures)
		}
		wantHedgeWins(t, h, 0)
	})

	t.Run("backup wins: primary cancelled, result is the backup's", func(t *testing.T) {
		h := hedged(delay)
		f := start(t, h)
		waitClosed(t, "the backup attempt", f.q.attempt(1).blocked)
		f.q.attempt(1).outcome <- nil
		r := finish(f)
		if r.err != nil || answeredBy(r.resp) != 1 {
			t.Fatalf("Query = attempt %d, %v; want the backup's answer", answeredBy(r.resp), r.err)
		}
		waitClosed(t, "the primary to return", f.q.attempt(0).returned)
		if !f.q.attempt(0).cancelled.Load() {
			t.Error("the primary's context was not cancelled when the backup won")
		}
		if c := counters(h); c.Hedges != 1 || c.Successes != 1 || c.Failures != 0 {
			t.Errorf("hedges %d successes %d failures %d, want 1/1/0", c.Hedges, c.Successes, c.Failures)
		}
		wantHedgeWins(t, h, 1)
	})

	t.Run("primary fails before the delay: its error, no backup", func(t *testing.T) {
		h := hedged(time.Hour)
		f := start(t, h)
		f.q.attempt(0).outcome <- errPrimary
		if r := finish(f); !errors.Is(r.err, errPrimary) {
			t.Fatalf("err = %v, want the primary's", r.err)
		}
		if got := f.q.calls(); got != 1 {
			t.Errorf("%d inner calls, want 1", got)
		}
		if c := counters(h); c.Hedges != 0 || c.Successes != 0 || c.Failures != 1 {
			t.Errorf("hedges %d successes %d failures %d, want 0/0/1", c.Hedges, c.Successes, c.Failures)
		}
	})

	t.Run("primary fails after the backup started: the backup's answer", func(t *testing.T) {
		h := hedged(delay)
		f := start(t, h)
		waitClosed(t, "the backup attempt", f.q.attempt(1).blocked)
		f.q.attempt(0).outcome <- errPrimary
		waitClosed(t, "the primary to return", f.q.attempt(0).returned)
		select {
		case r := <-f.done:
			t.Fatalf("Query returned %v with the backup still out", r.err)
		case <-time.After(delay):
		}
		f.q.attempt(1).outcome <- nil
		if r := finish(f); r.err != nil || answeredBy(r.resp) != 1 {
			t.Fatalf("Query = attempt %d, %v; want the backup's answer", answeredBy(r.resp), r.err)
		}
	})

	t.Run("both fail: an error, both joined", func(t *testing.T) {
		h := hedged(delay)
		f := start(t, h)
		waitClosed(t, "the backup attempt", f.q.attempt(1).blocked)
		f.q.attempt(0).outcome <- errPrimary
		f.q.attempt(1).outcome <- errBackup
		r := finish(f)
		if !errors.Is(r.err, errPrimary) && !errors.Is(r.err, errBackup) {
			t.Fatalf("err = %v, want one of the attempts'", r.err)
		}
		for i := 0; i < 2; i++ {
			select {
			case <-f.q.attempt(i).returned:
			default:
				t.Errorf("Query returned before attempt %d did", i)
			}
		}
		if c := counters(h); c.Hedges != 1 || c.Successes != 0 || c.Failures != 1 {
			t.Errorf("hedges %d successes %d failures %d, want 1/0/1", c.Hedges, c.Successes, c.Failures)
		}
	})

	t.Run("caller cancels", func(t *testing.T) {
		for _, withBackup := range []bool{false, true} {
			h := hedged(delay)
			if !withBackup {
				h.fixed = time.Hour
			}
			f := start(t, h)
			if withBackup {
				waitClosed(t, "the backup attempt", f.q.attempt(1).blocked)
			}
			f.cancel()
			if r := finish(f); !errors.Is(r.err, context.Canceled) {
				t.Fatalf("backup out %v: err = %v, want context.Canceled", withBackup, r.err)
			}
			if c := counters(h); c.Successes != 0 || c.Failures != 1 {
				t.Errorf("backup out %v: successes %d failures %d, want 0/1", withBackup, c.Successes, c.Failures)
			}
		}
	})

	t.Run("no hedging: no timer, no derived context", func(t *testing.T) {
		distrust := NewTrustTracker(4, 0.5)
		st := distrust.state("u0")
		st.ring[0], st.count = 0, 1
		for name, h := range map[string]*hedgedQuerier{
			"disabled":   {inner: &scriptedQuerier{}, health: NewHealthTracker(0, 0, nil), fixed: time.Millisecond, disable: true},
			"distrusted": {inner: &scriptedQuerier{}, health: NewHealthTracker(0, 0, nil), fixed: time.Millisecond, trust: distrust},
			"no history": {inner: &scriptedQuerier{}, health: NewHealthTracker(0, 0, nil)},
		} {
			f := start(t, h)
			// Far beyond the 1 ms delay a hedging querier would have used.
			time.Sleep(20 * time.Millisecond)
			if got := f.q.calls(); got != 1 {
				t.Errorf("%s: %d inner calls, want 1", name, got)
			}
			if f.q.attempt(0).ctx != f.ctx {
				t.Errorf("%s: the inner query did not get the caller's own context", name)
			}
			f.q.attempt(0).outcome <- nil
			if r := finish(f); r.err != nil {
				t.Errorf("%s: %v", name, r.err)
			}
			if c := counters(h); c.Hedges != 0 || c.Successes != 1 {
				t.Errorf("%s: hedges %d successes %d, want 0/1", name, c.Hedges, c.Successes)
			}
		}
	})
}

// jitterQuerier answers or fails after a random wait around the hedge
// delay, honouring its context.
type jitterQuerier struct {
	rnd   *rand.Rand
	mu    sync.Mutex
	calls atomic.Int64
}

func (j *jitterQuerier) Query(ctx context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	j.calls.Add(1)
	j.mu.Lock()
	wait, fail := time.Duration(j.rnd.Intn(1500))*time.Microsecond, j.rnd.Intn(4) == 0
	j.mu.Unlock()
	select {
	case <-time.After(wait):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if fail {
		return nil, errors.New("jitter: failed")
	}
	query, err := dnswire.NewQuery(name, typ)
	if err != nil {
		return nil, err
	}
	return dnswire.NewResponse(query), nil
}

// TestHedgedQuerierLeavesNoGoroutines runs a thousand queries whose
// attempts finish on either side of the hedge delay, succeed and fail, some
// abandoned by their caller: every one is observed exactly once, and when
// they are over so is every goroutine and timer they started.
func TestHedgedQuerierLeavesNoGoroutines(t *testing.T) {
	const queries, callers = 1000, 8
	base := runtime.NumGoroutine()
	q := &jitterQuerier{rnd: rand.New(rand.NewSource(1))}
	h := &hedgedQuerier{inner: q, health: NewHealthTracker(0, 0, nil), fixed: 500 * time.Microsecond}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queries/callers; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%10 == c {
					time.AfterFunc(300*time.Microsecond, cancel)
				}
				_, _ = h.Query(ctx, "u0", "pool.test.", dnswire.TypeA)
				cancel()
			}
		}(c)
	}
	wg.Wait()
	st := h.health.Snapshot([]Endpoint{{URL: "u0"}})[0]
	if got := st.Successes + st.Failures; got != queries {
		t.Errorf("%d outcomes observed for %d queries", got, queries)
	}
	if st.Hedges == 0 || uint64(q.calls.Load()) != queries+st.Hedges {
		t.Errorf("%d inner calls for %d queries and %d hedges", q.calls.Load(), queries, st.Hedges)
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= base })
}
