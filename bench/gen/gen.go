// Package gen holds the benchmark's load generators. All of them are
// closed loop: a worker sends its next query only when a slot of its fixed
// window is free, so a slow server receives less load, never a growing
// queue. Queries are encoded once per name; per send only the ID is
// patched, and nothing on the per-query path allocates or decodes.
package gen

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"dohpool/bench/dnsmsg"
	"dohpool/bench/trace"
)

// Phases a Control can be in besides a segment index ≥ 0.
const (
	PhaseWarmup int32 = -1 // run, record nothing
	PhaseStop   int32 = -2
)

// Control tells every worker which segment the queries it sends belong to.
type Control struct {
	phase  atomic.Int32
	traced atomic.Bool
}

// NewControl starts in warm-up.
func NewControl() *Control {
	c := &Control{}
	c.phase.Store(PhaseWarmup)
	return c
}

// Set moves all workers to a segment, to warm-up or to a stop.
func (c *Control) Set(phase int32) { c.phase.Store(phase) }

// SetTraced turns span recording on or off for workers that have a
// recorder.
func (c *Control) SetTraced(on bool) { c.traced.Store(on) }

// Names is a workload's name table: one pre-encoded query per name, the
// rcode its class must produce, and whether its latency is reported.
type Names struct {
	Queries [][]byte
	Rcode   []uint8
	// Timed is false for names whose latency the workload does not report
	// (unresolvable names in miss_mix); nil times everything.
	Timed []bool
}

func (n *Names) timed(i uint32) bool { return n.Timed == nil || n.Timed[i] }

// Segment is what became of the queries one worker sent in one segment.
type Segment struct {
	Attempted uint64
	Valid     uint64
	lat       []uint32 // latency samples in ns, in completion order
}

// Result is what one worker did in a run.
type Result struct {
	Segments []Segment
	latFull  bool
	Timeouts uint64
	IOErrors uint64
	Strays   uint64 // UDP datagrams that matched no outstanding query
	Invalid  [dnsmsg.NumReasons]uint64
}

// Failed counts queries that were dropped, unanswered or answered wrongly
// in measured segments.
func (r *Result) Failed() uint64 {
	var a, v uint64
	for _, s := range r.Segments {
		a += s.Attempted
		v += s.Valid
	}
	return a - v
}

// Latencies returns segment seg's samples; the caller may sort them.
func (r *Result) Latencies(seg int) []uint32 { return r.Segments[seg].lat }

// LatFull reports that a segment's sample buffer filled and later samples
// were counted but not kept.
func (r *Result) LatFull() bool { return r.latFull }

// worker is the bookkeeping every generator shares.
type worker struct {
	ctl     *Control
	names   *Names
	picks   []uint32 // name indices, cycled
	pick    int
	base    time.Time
	timeout time.Duration
	rec     *trace.Recorder // nil when untraced

	res Result
}

// Options configure one worker.
type Options struct {
	Control *Control
	Names   *Names
	// Picks is this worker's seeded sequence of name indices; it is cycled.
	Picks []uint32
	// Segments is how many measured segments the run has.
	Segments int
	// MaxSamples bounds the latency samples kept per segment.
	MaxSamples int
	// Timeout is how long a query may stay unanswered before it fails.
	Timeout time.Duration
	// Base is the run's time base for trace stamps.
	Base time.Time
	// Recorder, when set, receives the spans of each request made while
	// the control has tracing on.
	Recorder *trace.Recorder
}

func newWorker(o Options) worker {
	w := worker{
		ctl: o.Control, names: o.Names, picks: o.Picks, base: o.Base, timeout: o.Timeout,
		rec: o.Recorder, res: Result{Segments: make([]Segment, o.Segments)},
	}
	for s := range w.res.Segments {
		w.res.Segments[s].lat = make([]uint32, 0, o.MaxSamples)
	}
	return w
}

func (w *worker) now() int64 { return int64(time.Since(w.base)) }

// next draws the next name index.
func (w *worker) next() uint32 {
	i := w.picks[w.pick]
	if w.pick++; w.pick == len(w.picks) {
		w.pick = 0
	}
	return i
}

// tracing reports whether the request about to start is traced.
func (w *worker) tracing() bool { return w.rec != nil && w.ctl.traced.Load() }

// book records one finished query in the segment it was sent in, which is
// not the one it finished in when the answer, or the timeout, came after a
// boundary: a query dropped late in a segment still fails that segment.
func (w *worker) book(phase int32, name uint32, latNs int64, out Outcome) {
	if phase < 0 {
		return
	}
	w.count(out)
	s := &w.res.Segments[phase]
	s.Attempted++
	if out != OK {
		return
	}
	s.Valid++
	if w.names.timed(name) {
		if len(s.lat) < cap(s.lat) {
			s.lat = append(s.lat, uint32(latNs))
		} else {
			w.res.latFull = true
		}
	}
}

// Exchanger does one blocking exchange: send the query for a name, wait
// for its answer, validate it. Stream, DoH and library workers differ only
// in this.
type Exchanger interface {
	// Exchange returns OK for a valid answer. When st is non-nil it
	// stamps where send, wait and validate begin (st[1..3]).
	Exchange(name uint32, id uint16, st *trace.Stamps) Outcome
	Close()
}

// Outcome is how one query ended.
type Outcome uint8

// An Outcome below Timeout is the validator's dnsmsg.Reason; OK is a valid
// answer.
const (
	OK      = Outcome(dnsmsg.OK)
	Timeout = Outcome(100)
	IOError = Outcome(101)
)

// failure sorts a transport error into Timeout or IOError.
func failure(err error) Outcome {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return Timeout
	}
	return IOError
}

// PingPong runs one closed-loop worker with one query outstanding until
// the control says stop.
func PingPong(o Options, ex Exchanger) *Result {
	w := newWorker(o)
	var id uint16
	var st trace.Stamps
	for {
		phase := w.ctl.phase.Load()
		if phase == PhaseStop {
			return &w.res
		}
		traced := w.tracing()
		t0 := w.now()
		name := w.next()
		id++
		var out Outcome
		if traced {
			st[0] = t0
			out = ex.Exchange(name, id, &st)
		} else {
			out = ex.Exchange(name, id, nil)
		}
		t1 := w.now()
		if traced {
			st[4] = t1
			for i := 1; i < len(st); i++ { // a failed exchange skips stamps
				st[i] = max(st[i], st[i-1])
			}
			w.rec.Add(name, &st)
		}
		w.book(phase, name, t1-t0, out)
	}
}

// count files a failed outcome under its cause, for the run's report.
func (w *worker) count(out Outcome) {
	switch {
	case out == OK:
	case out == Timeout:
		w.res.Timeouts++
	case out == IOError:
		w.res.IOErrors++
	default:
		w.res.Invalid[out]++
	}
}
