package runner

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"dohpool/bench/child"
	"dohpool/bench/dnsmsg"
	"dohpool/bench/gen"
	"dohpool/bench/procfs"
	"dohpool/bench/promtext"
	"dohpool/bench/trace"
	"dohpool/bench/upstream"
)

const (
	// Segments is how many measured segments a run has. The reported value
	// of a metric is the median over them, so one segment that shared its
	// cores with a neighbour does not set the number.
	Segments = 5
	// Setups is how many times a run sets the target up; setup_s is their
	// median. The last one is the one measured.
	Setups = 3
	// answersPerPool is resolvers × K: three resolvers, four addresses per
	// answer.
	answersPerPool = 12
	// queryTimeout is how long a query may stay unanswered before it is a
	// failure.
	queryTimeout = 2 * time.Second
	// maxSamples bounds the latency samples one worker keeps per segment
	// (4 B each).
	maxSamples = 1 << 20
	// keptRequests bounds the requests one worker's trace keeps whole.
	keptRequests = 1 << 11
)

// Config is what the command line decides.
type Config struct {
	// BinDir holds the dohpoold and benchstack binaries.
	BinDir string
	// OutDir receives trace files and the scratch files of a run.
	OutDir string
	Seed   int64
	// Measure is the total measuring time, split evenly into Segments;
	// warm-up is one more segment's length.
	Measure time.Duration
	// Trace adds the per-layer pass: counter scrapes around the measured
	// window, request spans in every other segment, floors and probes
	// afterwards.
	Trace bool
	// Log receives the children's stderr, from several of them at once.
	Log io.Writer
}

// Workers is how many generator goroutines — and connections — a workload
// uses: the generator must not need more cores than the daemon is left.
func Workers() int { return min(runtime.NumCPU(), 2) }

// mark is what the coordinator reads at a segment boundary.
type mark struct {
	at     time.Time
	target procfs.Sample
	own    time.Duration // runner's CPU time (getrusage)
}

// Outcome is everything one run of one workload observed.
type Outcome struct {
	Workload  string
	Seed      int64
	Attempted uint64
	Failed    uint64
	// Causes counts the failed queries by cause.
	Causes map[string]uint64
	// Setups are the set-up times in seconds, in order.
	Setups []float64
	// Seg holds the per-segment values the end-to-end medians are over.
	Seg []SegmentValues
	// Whole is the measured window taken as one segment.
	Whole SegmentValues
	// E2E and Layers are the reported metrics by name. A layer metric is
	// nil when the family it is derived from is absent.
	E2E    map[string]float64
	Layers map[string]*float64
	Notes  []string
	// TraceFile is where the spans went, in a traced run.
	TraceFile string
}

// SegmentValues are one segment's end-to-end values.
type SegmentValues struct {
	Seconds   float64
	Valid     uint64
	Samples   int // latency samples behind P50 and P99
	BeyondP99 int // samples above P99
	QPS       float64
	P50us     float64
	P99us     float64
	CPUusPerQ float64
	Traced    bool
}

func ownCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleep waits for d, or returns the context's error if it ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// placeCPUs gives the daemon CPUs of its own: the runner — and the upstream
// it starts next — move to the first allowed CPU, the daemon will be
// confined to the rest. Sharing cores instead spreads a UDP ping-pong's p50
// by 19 % from run to run, by where the scheduler put four busy threads.
// The library workload has no daemon and keeps every CPU, as does a
// one-CPU box. unpin undoes the move.
func placeCPUs(wl *Workload) (daemon *child.CPUSet, unpin func(), err error) {
	allowed, err := child.Allowed()
	if err != nil || len(allowed.List()) < 2 || wl.kind == kindLib {
		return nil, func() {}, nil
	}
	cpus := allowed.List()
	var mine, its child.CPUSet
	mine.Add(cpus[0])
	for _, c := range cpus[1:] {
		its.Add(c)
	}
	if err := child.PinSelf(mine); err != nil {
		return nil, nil, err
	}
	// One CPU, one P — for workers that wait. With the two Ps it started
	// with, a ping-pong worker whose read found nothing leaves its thread
	// spinning for work on the CPU the other worker's thread needs; the two
	// loops lock into one phase or another for a whole run, and udp_hit's p50
	// read 65 or 71 µs by run (spread 8 %, with one P 1 %). Workers that
	// flood are busy, not waiting, and on one P they run strictly one after
	// the other: whether a burst's answers are read before or after the
	// other worker's 32 sends flips by segment (p50 68 or 100 µs, spread
	// 10 %). They keep both Ps and the kernel time-slices them (3–5 %).
	procs := runtime.GOMAXPROCS(0)
	if !wl.shape.Burst {
		runtime.GOMAXPROCS(1)
	}
	return &its, sync.OnceFunc(func() {
		runtime.GOMAXPROCS(procs)
		_ = child.PinSelf(allowed)
	}), nil
}

// Run runs one workload once. It stops and reaps every process it started
// before it returns, whether it succeeds, fails or ctx is cancelled.
func Run(ctx context.Context, cfg *Config, wl *Workload) (*Outcome, error) {
	workers := Workers()
	dir, err := os.MkdirTemp(cfg.OutDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	daemonCPUs, unpin, err := placeCPUs(wl)
	if err != nil {
		return nil, err
	}
	defer unpin()

	up, err := upstream.Start(filepath.Join(cfg.BinDir, "benchstack"), cfg.Log, wl.zone-1, wl.ttl, wl.freshTTL)
	if err != nil {
		return nil, err
	}
	defer up.Stop()
	if err := os.WriteFile(filepath.Join(dir, "upstream-ca.pem"), []byte(up.CAPEM), 0o644); err != nil {
		return nil, err
	}
	benign, err := up.BenignAddrs()
	if err != nil {
		return nil, err
	}
	check := &dnsmsg.Checker{Answers: answersPerPool, Benign: benign, MaxTTL: wl.ttl}
	tab, err := wl.buildTable(cfg.Seed, up.Domains)
	if err != nil {
		return nil, err
	}

	out := &Outcome{Workload: wl.Name, Seed: cfg.Seed, Causes: map[string]uint64{},
		E2E: map[string]float64{}, Layers: map[string]*float64{}, Notes: []string{"loopback, not a link"}}

	// Set up several times; measure the last.
	var tgt target
	for i := 0; i < Setups; i++ {
		if tgt != nil {
			tgt.stop()
		}
		var took time.Duration
		if wl.kind == kindLib {
			tgt, took, err = startLib(wl, up, tab, check)
		} else {
			tgt, took, err = startDaemon(ctx, cfg, wl, up, tab, check, dir, daemonCPUs)
		}
		if err != nil {
			return nil, err
		}
		out.Setups = append(out.Setups, took.Seconds())
	}
	defer func() { tgt.stop() }()

	base := time.Now()
	ctl := gen.NewControl()
	picks := wl.workerPicks(cfg.Seed, workers)
	recs := make([]*trace.Recorder, workers)
	opts := make([]gen.Options, workers)
	for w := range opts {
		if cfg.Trace {
			recs[w] = trace.NewRecorder(keptRequests, uint32(w)<<24)
		}
		opts[w] = gen.Options{Control: ctl, Names: &tab.names, Picks: picks[w], Segments: Segments,
			MaxSamples: maxSamples, Timeout: queryTimeout, Base: base, Recorder: recs[w]}
	}
	loops, closeConns, err := connect(wl, tgt, tab, check, opts)
	if err != nil {
		return nil, err
	}
	defer closeConns()
	stopWorkers := startWorkers(ctl, loops)
	defer stopWorkers()

	marks, traced, delta, err := measure(ctx, cfg, ctl, tgt)
	if err != nil {
		return nil, err
	}
	results := stopWorkers()
	final, err := tgt.sample()
	if err != nil {
		return nil, err
	}
	out.collect(results, marks, traced)
	out.E2E["rss_mb"] = float64(final.HWMkB) / 1024
	out.E2E["setup_s"] = median(out.Setups)
	if !cfg.Trace {
		return out, nil
	}

	tgt.stop() // floors and probes want the machine to themselves,
	unpin()    // all of it
	log := &trace.Log{}
	out.layers(wl, delta, marks, workers, log, base, up)
	var segs []trace.Window
	for s := range traced {
		if traced[s] {
			segs = append(segs, trace.Window{Name: fmt.Sprintf("segment-%d", s),
				StartNs: int64(marks[s].at.Sub(base)), EndNs: int64(marks[s+1].at.Sub(base))})
		}
	}
	out.TraceFile = filepath.Join(cfg.OutDir, "trace-"+wl.Name+".json")
	serial := wl.kind != kindUDP || wl.shape.Window == 1
	if err := log.WriteFile(out.TraceFile, wl.Name, cfg.Seed, segs, recs, serial); err != nil {
		return nil, err
	}
	return out, nil
}

// measure lets the workers warm up for one segment's length, then steps
// them through the measured segments, reading the target's CPU time and the
// clock at every boundary. In a traced run it also scrapes the target's
// counters around the measured window and has the odd segments record
// spans; the even ones are the untraced side of trace.overhead_share.
func measure(ctx context.Context, cfg *Config, ctl *gen.Control, tgt target) (marks []mark, traced []bool, delta promtext.Scrape, err error) {
	segment := cfg.Measure / Segments
	if err := sleep(ctx, segment); err != nil {
		return nil, nil, nil, err
	}
	var before promtext.Scrape
	if cfg.Trace {
		if before, err = tgt.scrape(); err != nil {
			return nil, nil, nil, err
		}
	}
	marks = make([]mark, Segments+1)
	traced = make([]bool, Segments)
	for s := range marks {
		m := &marks[s]
		if m.target, err = tgt.sample(); err != nil {
			return nil, nil, nil, err
		}
		m.own, m.at = ownCPU(), time.Now()
		if s == Segments {
			break
		}
		traced[s] = cfg.Trace && s%2 == 1
		ctl.SetTraced(traced[s])
		ctl.Set(int32(s))
		if err := sleep(ctx, segment); err != nil {
			return nil, nil, nil, err
		}
	}
	ctl.Set(gen.PhaseWarmup) // keep the load on while the counters are read
	if cfg.Trace {
		after, err := tgt.scrape()
		if err != nil {
			return nil, nil, nil, err
		}
		delta = promtext.Delta(after, before)
	}
	return marks, traced, delta, nil
}

// A loop is one worker's generator, connected and ready to run until the
// control stops it.
type loop func() *gen.Result

func dialUDP(addr string) (*net.UDPConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, raddr)
}

// udpLoop runs a worker on its own connected UDP socket.
func udpLoop(conn *net.UDPConn, o gen.Options, check *dnsmsg.Checker, shape gen.UDPShape) (loop, func()) {
	return func() *gen.Result { return gen.UDP(o, conn, check, shape) }, func() { _ = conn.Close() }
}

// streamLoop gives a worker its own persistent connection from dial.
func streamLoop(dial func() (net.Conn, error), o gen.Options, check *dnsmsg.Checker) (loop, func(), error) {
	ex, err := gen.NewStream(dial, o.Names, check, o.Timeout, o.Base)
	if err != nil {
		return nil, nil, err
	}
	return func() *gen.Result { return gen.PingPong(o, ex) }, ex.Close, nil
}

// dohLoop puts a worker on the HTTP/2 client all DoH workers share.
func dohLoop(client *http.Client, url string, o gen.Options, check *dnsmsg.Checker) loop {
	ex := gen.NewDoH(client, url, o.Names, check, o.Base)
	return func() *gen.Result { return gen.PingPong(o, ex) }
}

// connect opens each worker's connection to the target and returns the
// worker loops.
func connect(wl *Workload, tgt target, tab *table, check *dnsmsg.Checker, opts []gen.Options) (loops []loop, closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for _, c := range closers {
			c()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	d, _ := tgt.(*daemon)
	var dohClient *http.Client
	var flows []*net.UDPConn
	switch wl.kind {
	case kindDoH:
		dohClient = gen.NewDoHClient(d.servingTLS, queryTimeout)
		closers = append(closers, dohClient.CloseIdleConnections)
	case kindUDP:
		if flows, err = d.dialFlows(len(opts), tab.names.Queries[0], check); err != nil {
			return nil, nil, err
		}
	}
	for w, o := range opts {
		var l loop
		closeConn := func() {}
		switch wl.kind {
		case kindUDP:
			l, closeConn = udpLoop(flows[w], o, check, wl.shape)
		case kindStream:
			dial := func() (net.Conn, error) { return net.Dial("tcp", d.addr) }
			if w%2 == 1 {
				dial = func() (net.Conn, error) { return tls.Dial("tcp", d.dotAddr, d.servingTLS) }
			}
			l, closeConn, err = streamLoop(dial, o, check)
		case kindDoH:
			l = dohLoop(dohClient, d.dohURL, o, check)
		case kindLib:
			ex := &libExchanger{client: tgt.(*lib).client, domains: tab.domains, check: check, timeout: o.Timeout, base: o.Base}
			l = func() *gen.Result { return gen.PingPong(o, ex) }
		}
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, closeConn)
		loops = append(loops, l)
	}
	return loops, closeAll, nil
}

// startWorkers runs every loop on a goroutine of its own. stop ends them
// through ctl, waits, and returns their results; it may be called twice.
func startWorkers(ctl *gen.Control, loops []loop) (stop func() []*gen.Result) {
	results := make([]*gen.Result, len(loops))
	var wg sync.WaitGroup
	for w, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = l()
		}()
	}
	end := sync.OnceFunc(func() {
		ctl.Set(gen.PhaseStop)
		wg.Wait()
	})
	return func() []*gen.Result {
		end()
		return results
	}
}

// collect turns the workers' results and the boundary marks into
// per-segment values and their medians.
func (out *Outcome) collect(results []*gen.Result, marks []mark, traced []bool) {
	for _, r := range results {
		out.Failed += r.Failed()
		out.Causes["timeout"] += r.Timeouts
		out.Causes["io_error"] += r.IOErrors
		for reason, n := range r.Invalid {
			if n > 0 {
				out.Causes[dnsmsg.Reason(reason).String()] += n
			}
		}
		if r.LatFull() {
			out.Notes = append(out.Notes, "latency sample buffer filled; later samples counted but not kept")
		}
	}
	var qps, p50, p99, cpu []float64
	var all []uint32
	for s := 0; s < Segments; s++ {
		var valid uint64
		var lat []uint32
		for _, r := range results {
			valid += r.Segments[s].Valid
			out.Attempted += r.Segments[s].Attempted
			lat = append(lat, r.Latencies(s)...)
		}
		v := segmentValues(marks[s], marks[s+1], valid, lat)
		v.Traced = traced[s]
		out.Seg = append(out.Seg, v)
		all = append(all, lat...)
		out.Whole.Valid += valid
		if traced[s] {
			continue // end-to-end numbers come from untraced segments only
		}
		qps, p50, p99, cpu = append(qps, v.QPS), append(p50, v.P50us), append(p99, v.P99us), append(cpu, v.CPUusPerQ)
	}
	out.Whole = segmentValues(marks[0], marks[Segments], out.Whole.Valid, all)
	out.E2E["qps"], out.E2E["p50_us"], out.E2E["p99_us"], out.E2E["cpu_us_per_q"] = median(qps), median(p50), median(p99), median(cpu)
}

// segmentValues turns what happened between two marks into rates and
// quantiles. It sorts lat.
func segmentValues(from, to mark, valid uint64, lat []uint32) SegmentValues {
	v := SegmentValues{Seconds: to.at.Sub(from.at).Seconds(), Valid: valid, Samples: len(lat)}
	slices.Sort(lat)
	if len(lat) > 0 {
		v.P50us, v.P99us = quantile(lat, 0.50)/1e3, quantile(lat, 0.99)/1e3
		v.BeyondP99 = len(lat) - 1 - int(0.99*float64(len(lat)))
	}
	v.QPS = float64(valid) / v.Seconds
	if valid > 0 {
		v.CPUusPerQ = float64((to.target.CPU() - from.target.CPU()).Microseconds()) / float64(valid)
	}
	return v
}

func quantile(sorted []uint32, q float64) float64 {
	rank := q * float64(len(sorted))
	i := min(int(rank), len(sorted)-1)
	v := sorted[i]
	from := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= v })
	to := sort.Search(len(sorted), func(j int) bool { return sorted[j] > v })
	return float64(v) - 0.5 + (rank-float64(from))/float64(to-from)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
