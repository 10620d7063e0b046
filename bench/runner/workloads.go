// Package runner runs the benchmark's workloads: it starts the upstream
// and the daemon as child processes, drives the daemon over its sockets
// with the generators of package gen, samples it through /proc and
// /metrics, and turns what it saw into the end-to-end and per-layer
// metrics BENCHMARK.json names.
package runner

import (
	"fmt"
	"math/rand"

	"dohpool/bench/dnsmsg"
	"dohpool/bench/gen"
)

type kind int

const (
	kindUDP    kind = iota // every worker owns a UDP socket
	kindStream             // worker 0 on TCP, worker 1 on DoT
	kindDoH                // workers share one HTTP/2 client
	kindLib                // workers call dohpool.Client in-process
)

// hotNames is the size of the cached working set of every hit workload.
const hotNames = 17

// Workload is one traffic shape. Sizes are fixed here; only the seed and
// the measuring time come from the command line.
type Workload struct {
	// Name is the workload's name in BENCHMARK.json, which also says why it
	// exists.
	Name string

	kind  kind
	shape gen.UDPShape
	// zone is how many names the upstream zone serves, ttl their TTL.
	zone int
	ttl  uint32
	// freshTTL turns the upstream resolvers' caches off, so a refreshed
	// pool gets the zone's whole TTL again.
	freshTTL bool
	// hot is how many names (the first of the seeded order) set-up warms.
	hot int
	// nx is how many unresolvable names follow the zone's in the table.
	nx int
	// daemonArgs are the flags this workload names beyond the defaults;
	// every UDP workload also gets -udp-sockets, one per generator flow.
	daemonArgs []string
	// picks draws worker w's cycled sequence of name-table indices.
	picks func(rng *rand.Rand, w, workers int) []uint32
}

const drawn = 1 << 16 // picks per worker for the randomised workloads

// zipfHot draws ranks of the hot set, zipf with exponent 1.1.
func zipfHot(rng *rand.Rand, _, _ int) []uint32 {
	z := rand.NewZipf(rng, 1.1, 1, hotNames-1)
	out := make([]uint32, drawn)
	for i := range out {
		out[i] = uint32(z.Uint64())
	}
	return out
}

// stride walks worker w's share of the indices [from, from+n): no two
// workers ever have the same name in flight, so nothing coalesces.
func stride(from, n, w, workers int) []uint32 {
	var out []uint32
	for i := w; i < n; i += workers {
		out = append(out, uint32(from+i))
	}
	return out
}

const (
	coldZone      = 4096
	missCacheSize = "256" // -cache-size of the miss workloads: far below coldZone
)

// Workloads is the fixed list, in the order reports print it.
var Workloads = []Workload{
	{
		Name: "udp_hit", kind: kindUDP, shape: gen.UDPShape{Window: 1},
		zone: hotNames, ttl: 150, hot: hotNames, picks: zipfHot,
	},
	{
		Name: "udp_flood", kind: kindUDP, shape: gen.UDPShape{Window: 32, Burst: true},
		zone: hotNames, ttl: 150, hot: hotNames, picks: zipfHot,
	},
	{Name: "stream_hit", kind: kindStream, zone: hotNames, ttl: 150, hot: hotNames, picks: zipfHot},
	{Name: "doh_hit", kind: kindDoH, zone: hotNames, ttl: 150, hot: hotNames, picks: zipfHot},
	{Name: "lib_hit", kind: kindLib, zone: hotNames, ttl: 150, hot: hotNames, picks: zipfHot},
	{
		Name: "miss_cold", kind: kindUDP, shape: gen.UDPShape{Window: 8},
		zone: coldZone, ttl: 150,
		daemonArgs: []string{"-cache-size", missCacheSize},
		picks:      func(_ *rand.Rand, w, workers int) []uint32 { return stride(0, coldZone, w, workers) },
	},
	{
		Name: "miss_mix", kind: kindUDP, shape: gen.UDPShape{Window: 8},
		zone: hotNames + coldZone, ttl: 150, hot: hotNames, nx: coldZone,
		daemonArgs: []string{"-cache-size", missCacheSize},
		picks: func(rng *rand.Rand, w, workers int) []uint32 {
			hot := zipfHot(rng, w, workers)
			cold := stride(hotNames, coldZone, w, workers)
			nx := stride(hotNames+coldZone, coldZone, w, workers)
			out := make([]uint32, drawn)
			var c, n int
			for i := range out {
				switch u := rng.Float64(); {
				case u < 0.7:
					out[i] = hot[i]
				case u < 0.8:
					out[i] = cold[c%len(cold)]
					c++
				default:
					out[i] = nx[n%len(nx)]
					n++
				}
			}
			return out
		},
	},
	{
		Name: "hit_refresh", kind: kindUDP, shape: gen.UDPShape{Window: 1},
		zone: 512, ttl: 4, freshTTL: true, hot: 512,
		daemonArgs: []string{"-refresh-ahead", "0.5"},
		picks: func(rng *rand.Rand, _, _ int) []uint32 {
			out := make([]uint32, drawn)
			for i := range out {
				out[i] = uint32(rng.Intn(512))
			}
			return out
		},
	},
}

// Find returns the workload called name.
func Find(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// table is a workload's name table for one seed.
type table struct {
	names   gen.Names
	domains []string // the name behind each table index
}

// nxZone is outside the upstream's zone: resolvers have no authority for
// it, the generation fails, dohpoold answers SERVFAIL.
const nxZone = "nxzone.test."

// buildTable lays the zone's names out in a seeded order — the hot set is
// its first wl.hot entries — followed by the unresolvable names.
func (wl *Workload) buildTable(seed int64, zoneNames []string) (*table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &table{}
	for _, i := range rng.Perm(len(zoneNames)) {
		t.domains = append(t.domains, zoneNames[i])
	}
	for i := 0; i < wl.nx; i++ {
		t.domains = append(t.domains, fmt.Sprintf("nx-%d.%s", i, nxZone))
	}
	if wl.nx > 0 {
		t.names.Timed = make([]bool, len(t.domains))
	}
	for i, d := range t.domains {
		q, err := dnsmsg.Query(d)
		if err != nil {
			return nil, err
		}
		t.names.Queries = append(t.names.Queries, q)
		rcode := uint8(dnsmsg.RcodeNoError)
		if i >= len(zoneNames) {
			rcode = dnsmsg.RcodeServFail
		} else if wl.nx > 0 {
			t.names.Timed[i] = true
		}
		t.names.Rcode = append(t.names.Rcode, rcode)
	}
	return t, nil
}

// workerPicks draws each worker's pick sequence from the seed.
func (wl *Workload) workerPicks(seed int64, workers int) [][]uint32 {
	out := make([][]uint32, workers)
	for w := range out {
		out[w] = wl.picks(rand.New(rand.NewSource(seed*7919+int64(w)+1)), w, workers)
	}
	return out
}
