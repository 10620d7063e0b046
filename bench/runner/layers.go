package runner

import (
	"crypto/tls"
	"fmt"
	"net"
	"slices"
	"time"

	"dohpool/bench/dnsmsg"
	"dohpool/bench/fakedns"
	"dohpool/bench/gen"
	"dohpool/bench/probe"
	"dohpool/bench/promtext"
	"dohpool/bench/trace"
	"dohpool/bench/upstream"
)

// ratio is num/den, zero when nothing happened, nil when either family is
// absent from the scrape: a renamed or merged counter must read as "not
// measured", never as zero and never as a failed run.
func ratio(num, den float64, present ...bool) *float64 {
	for _, p := range present {
		if !p {
			return nil
		}
	}
	v := 0.0
	if den != 0 {
		v = num / den
	}
	return &v
}

func value(v float64) *float64 { return &v }

// layers fills out.Layers: counter ratios from the scrape delta, process
// figures from the boundary marks, then floors and probes.
func (out *Outcome) layers(wl *Workload, d promtext.Scrape, marks []mark, workers int, log *trace.Log, base time.Time, up *upstream.Upstream) {
	L := out.Layers
	first, last := marks[0], marks[len(marks)-1]

	// Queries the target saw: the frontend's count, or for the library
	// workload, which has no frontend, the engine's lookups.
	queries, haveQ := d.Sum("dohpool_frontend_queries_total")
	lookups, haveLookups := d.Sum("dohpool_engine_lookups_total")
	if wl.kind == kindLib {
		queries, haveQ = lookups, haveLookups
	}
	front := wl.kind != kindLib

	wireHits, ok := d.Sum("dohpool_wire_cache_hits_total")
	L["frontend.fast_path_share"] = ratio(wireHits, queries, ok, haveQ, front)
	dropped, ok := d.Sum("dohpool_frontend_dropped_total")
	L["frontend.dropped_per_kq"] = ratio(1000*dropped, queries, ok, haveQ, front)
	writeErrs, ok := d.Sum("dohpool_frontend_write_errors_total")
	L["frontend.write_errors"] = ratio(writeErrs, 1, ok, front)
	var busy float64
	perSocket := d.ByLabel(socketPackets, "socket")
	for _, packets := range perSocket {
		if packets > 0 {
			busy++
		}
	}
	L["frontend.udp_sockets_busy"] = ratio(busy, 1, perSocket != nil, front)
	slowSum, ok1 := d.Sum("dohpool_frontend_latency_seconds_sum")
	slowCount, ok2 := d.Sum("dohpool_frontend_latency_seconds_count")
	L["frontend.slow_latency_ms"] = ratio(1000*slowSum, slowCount, ok1, ok2, front)

	gens, haveGens := d.Sum("dohpool_engine_generations_total")
	inline, _ := d.Sum("dohpool_engine_generations_total", "trigger", "inline")
	coalesced, _ := d.Sum("dohpool_engine_lookups_total", "outcome", "coalesced")
	L["engine.gens_per_q"] = ratio(gens, queries, haveGens, haveQ)
	L["engine.inline_gen_share"] = ratio(inline, gens, haveGens)
	L["engine.coalesced_share"] = ratio(coalesced, lookups, haveLookups)
	genSum, ok1 := d.Sum("dohpool_engine_pool_generation_seconds_sum")
	genCount, ok2 := d.Sum("dohpool_engine_pool_generation_seconds_count")
	L["engine.gen_ms"] = ratio(1000*genSum, genCount, ok1, ok2)

	exchanges, haveEx := d.Sum("dohpool_resolver_exchanges_total")
	exErrors, _ := d.Sum("dohpool_resolver_exchanges_total", "result", "error")
	hedges, haveHedges := d.Sum("dohpool_resolver_hedges_total")
	hedgeWins, haveWins := d.Sum("dohpool_resolver_hedge_wins_total")
	L["health.exchanges_per_gen"] = ratio(exchanges, gens, haveEx, haveGens)
	L["health.hedge_share"] = ratio(hedges, exchanges, haveHedges, haveEx)
	L["health.hedge_win_share"] = ratio(hedgeWins, hedges, haveWins, haveHedges)
	L["health.exchange_error_share"] = ratio(exErrors, exchanges, haveEx)

	hits, ok1 := d.Sum("dohpool_cache_hits_total")
	misses, ok2 := d.Sum("dohpool_cache_misses_total")
	L["dnscache.hit_share"] = ratio(hits, hits+misses, ok1, ok2)
	evictions, ok := d.Sum("dohpool_cache_evictions_total")
	L["dnscache.evictions_per_q"] = ratio(evictions, queries, ok, haveQ)

	cpu := last.target.CPU() - first.target.CPU()
	L["proc.sys_share"] = ratio(float64(last.target.Sys-first.target.Sys), float64(cpu))
	switches := (last.target.Voluntary + last.target.Involuntary) - (first.target.Voluntary + first.target.Involuntary)
	var valid uint64
	for _, s := range out.Seg {
		valid += s.Valid
	}
	L["proc.ctxsw_per_q"] = ratio(float64(switches), float64(valid))
	L["proc.threads"] = value(float64(last.target.Threads))

	// The generator's own cost. For lib_hit generator and target are one
	// process, so this equals cpu_us_per_q there.
	ownCPU := last.own - first.own
	wall := last.at.Sub(first.at)
	genPerQ := ratio(float64(ownCPU.Microseconds()), float64(valid))
	L["gen.cpu_us_per_q"] = genPerQ
	L["gen.window_full_share"] = value(max(0, 1-float64(ownCPU)/(float64(wall)*float64(workers))))
	L["gen.fail_share"] = ratio(float64(out.Failed), float64(out.Attempted))
	if wl.kind != kindLib && cpu > 0 && ownCPU >= cpu {
		out.Notes = append(out.Notes, "generator-bound: the runner used at least as much CPU as the daemon")
	}

	var tracedQPS, plainQPS []float64
	for _, s := range out.Seg {
		if s.Traced {
			tracedQPS = append(tracedQPS, s.QPS)
		} else {
			plainQPS = append(plainQPS, s.QPS)
		}
	}
	L["trace.overhead_share"] = ratio(median(plainQPS)-median(tracedQPS), median(plainQPS))

	floors, err := measureFloors(workers, log, base)
	if err != nil {
		out.Notes = append(out.Notes, "floors not measured: "+err.Error())
	}
	for name, v := range floors {
		L[name] = value(v)
	}
	probes, err := probe.All(probe.Upstream{Endpoints: up.Endpoints, CAPEM: []byte(up.CAPEM), Domain: up.Domains[0]}, log, base)
	if err != nil {
		out.Notes = append(out.Notes, "probes not measured: "+err.Error())
	}
	for name, v := range probes {
		L[name] = value(v)
	}
}

// floorTime is how long each floor is measured.
const floorTime = 250 * time.Millisecond

// measureFloors points the workloads' own generators, with the same
// number of workers, at a server that does nothing but copy the question
// and append a canned 12-answer section. What they measure is the
// generator, the kernel and the TLS and HTTP stacks: the part of p50_us
// that is not dohpoold's.
func measureFloors(workers int, log *trace.Log, base time.Time) (map[string]float64, error) {
	benign := [][4]byte{{192, 0, 2, 1}, {192, 0, 2, 2}, {192, 0, 2, 3}, {192, 0, 2, 4}}
	var answers [][4]byte
	for len(answers) < answersPerPool {
		answers = append(answers, benign...)
	}
	srv, err := fakedns.Start(fakedns.Honest(answers, 150))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	check := &dnsmsg.Checker{Answers: answersPerPool, Benign: benign, MaxTTL: 150}
	q, err := dnsmsg.Query("pool.ntppool.test.")
	if err != nil {
		return nil, err
	}
	names := &gen.Names{Queries: [][]byte{q}, Rcode: []uint8{dnsmsg.RcodeNoError}}
	dohClient := gen.NewDoHClient(srv.ClientTLS, queryTimeout)
	defer dohClient.CloseIdleConnections()

	floors := []struct {
		name    string
		connect func(gen.Options) (loop, func(), error)
	}{
		{"floor.udp_rtt_us", func(o gen.Options) (loop, func(), error) {
			conn, err := dialUDP(srv.UDPAddr)
			if err != nil {
				return nil, nil, err
			}
			l, closeConn := udpLoop(conn, o, check, gen.UDPShape{Window: 1})
			return l, closeConn, nil
		}},
		{"floor.tcp_rtt_us", func(o gen.Options) (loop, func(), error) {
			return streamLoop(func() (net.Conn, error) { return net.Dial("tcp", srv.TCPAddr) }, o, check)
		}},
		{"floor.tls_rtt_us", func(o gen.Options) (loop, func(), error) {
			return streamLoop(func() (net.Conn, error) { return tls.Dial("tcp", srv.TLSAddr, srv.ClientTLS) }, o, check)
		}},
		{"floor.h2_rtt_us", func(o gen.Options) (loop, func(), error) {
			return dohLoop(dohClient, srv.DoHURL, o, check), func() {}, nil
		}},
	}

	out := make(map[string]float64)
	for _, f := range floors {
		ctl := gen.NewControl()
		var loops []loop
		var closers []func()
		for w := 0; w < workers && err == nil; w++ {
			var l loop
			var closeConn func()
			l, closeConn, err = f.connect(gen.Options{Control: ctl, Names: names, Picks: []uint32{0}, Segments: 1,
				MaxSamples: 1 << 16, Timeout: queryTimeout, Base: base})
			if err == nil {
				loops, closers = append(loops, l), append(closers, closeConn)
			}
		}
		stop := startWorkers(ctl, loops)
		if err == nil {
			time.Sleep(floorTime / 5) // connections and the HTTP/2 session settle
			start := time.Now()
			ctl.Set(0)
			time.Sleep(floorTime)
			log.Add("floor:"+f.name, "", int64(start.Sub(base)), int64(time.Since(base)))
		}
		results := stop()
		for _, c := range closers {
			c()
		}
		if err != nil {
			return out, fmt.Errorf("%s: %w", f.name, err)
		}
		var lat []uint32
		for _, r := range results {
			if r.Failed() > 0 {
				return out, fmt.Errorf("%s: %d queries failed against the canned server", f.name, r.Failed())
			}
			lat = append(lat, r.Latencies(0)...)
		}
		if len(lat) == 0 {
			return out, fmt.Errorf("%s: no samples", f.name)
		}
		slices.Sort(lat)
		out[f.name] = quantile(lat, 0.5) / 1e3
	}
	return out, nil
}
