package runner

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract at the repository's root, which the runner
// takes every metric's name, unit, direction and bound from.
const benchmarkJSON = "../../BENCHMARK.json"

func loadSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := LoadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The workloads BENCHMARK.json names are the ones the runner has, in the
// order it prints them. That every metric it names is one the runner
// measures is TestEveryWorkload's to check: ResultLine fails otherwise.
func TestBenchmarkJSONNamesTheRunnersWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range Workloads {
		want = append(want, w.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json has workloads %v, the runner %v", got, want)
	}
}

// The limits the driver checks before it makes a single run.
func TestBenchmarkJSONFitsTheContract(t *testing.T) {
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract has 6", len(keys))
	}

	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]Metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not fit the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestInputsComeFromTheSeed(t *testing.T) {
	zone := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "pool-" + strings.Repeat("x", i%5) + string(rune('a'+i%26)) + ".ntppool.test."
		}
		return out
	}
	for i := range Workloads {
		wl := &Workloads[i]
		a, err := wl.buildTable(3, zone(wl.zone))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := wl.buildTable(3, zone(wl.zone))
		c, _ := wl.buildTable(4, zone(wl.zone))
		if strings.Join(a.domains, " ") != strings.Join(b.domains, " ") {
			t.Errorf("%s: same seed, different name order", wl.Name)
		}
		if strings.Join(a.domains, " ") == strings.Join(c.domains, " ") {
			t.Errorf("%s: different seeds, same name order", wl.Name)
		}
		if len(a.domains) != wl.zone+wl.nx || len(a.names.Queries) != len(a.domains) {
			t.Errorf("%s: table has %d names, want %d", wl.Name, len(a.domains), wl.zone+wl.nx)
		}
		pa, pb := wl.workerPicks(3, 2), wl.workerPicks(3, 2)
		for w := range pa {
			if len(pa[w]) == 0 {
				t.Fatalf("%s: worker %d has no picks", wl.Name, w)
			}
			for k := range pa[w] {
				if pa[w][k] != pb[w][k] {
					t.Fatalf("%s: same seed, different picks", wl.Name)
				}
				if int(pa[w][k]) >= len(a.domains) {
					t.Fatalf("%s: pick %d outside the table of %d", wl.Name, pa[w][k], len(a.domains))
				}
			}
		}
	}
}

// miss_cold must never ask for a name twice within the cache's horizon, and
// miss_mix must hold its 70/10/20 split.
func TestMissWorkloadShapes(t *testing.T) {
	cold, _ := Find("miss_cold")
	seen := map[uint32]bool{}
	for _, picks := range cold.workerPicks(1, 2) {
		for _, p := range picks {
			if seen[p] {
				t.Fatalf("miss_cold: name %d picked by two workers or twice in a cycle", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != coldZone {
		t.Errorf("miss_cold cycles over %d names, want %d", len(seen), coldZone)
	}

	mix, _ := Find("miss_mix")
	var hot, coldN, nx int
	picks := mix.workerPicks(1, 2)
	for _, ps := range picks {
		for _, p := range ps {
			switch {
			case p < hotNames:
				hot++
			case p < hotNames+coldZone:
				coldN++
			default:
				nx++
			}
		}
	}
	total := float64(hot + coldN + nx)
	for _, c := range []struct {
		name string
		got  int
		want float64
	}{{"hot", hot, 0.7}, {"cold", coldN, 0.1}, {"unresolvable", nx, 0.2}} {
		if share := float64(c.got) / total; math.Abs(share-c.want) > 0.01 {
			t.Errorf("miss_mix %s share = %.3f, want %.1f", c.name, share, c.want)
		}
	}
}

func TestQuantileInterpolatesAcrossTies(t *testing.T) {
	// Ten samples of 100 ns: the median sits in the middle of the tied run,
	// the 90th percentile nine tenths of the way through it.
	ties := []uint32{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	if got := quantile(ties, 0.5); math.Abs(got-100) > 1e-9 {
		t.Errorf("median of ties = %v, want 100", got)
	}
	if got := quantile(ties, 0.9); math.Abs(got-100.4) > 1e-9 {
		t.Errorf("p90 of ties = %v, want 100.4", got)
	}
	distinct := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := quantile(distinct, 0.5); got < 59.5 || got > 60.5 {
		t.Errorf("median of distinct = %v, want within half a ns of 60", got)
	}
	if got := quantile(distinct, 0.99); got < 99.5 || got > 100.5 {
		t.Errorf("p99 of distinct = %v, want within half a ns of 100", got)
	}
	if got := quantile([]uint32{7}, 0.99); got < 6.5 || got > 7.5 {
		t.Errorf("p99 of one sample = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestRatioIsNullOnlyForAnAbsentFamily(t *testing.T) {
	if p := ratio(1, 4, true, true); p == nil || *p != 0.25 {
		t.Errorf("ratio = %v", p)
	}
	if p := ratio(0, 0, true); p == nil || *p != 0 {
		t.Errorf("nothing happened must be zero, got %v", p)
	}
	if p := ratio(1, 4, true, false); p != nil {
		t.Errorf("absent family must be null, got %v", *p)
	}
}

func TestCompareAAFlagsBothDirections(t *testing.T) {
	metrics := []Metric{{"qps", "1/s", "higher", 0.1}, {"p50_us", "us", "lower", 0.1}, {"rss_mb", "MB", "lower", 0.1}}
	mk := func(qps, p50 float64) []*Summary {
		return []*Summary{{Workload: "w", Metrics: map[string]float64{"qps": qps, "p50_us": p50, "rss_mb": 1}}}
	}
	var buf bytes.Buffer
	if bad := CompareAA(&buf, mk(100, 50), mk(95, 52), metrics); bad != 0 {
		t.Errorf("within bounds flagged %d:\n%s", bad, buf.String())
	}
	if bad := CompareAA(&buf, mk(100, 50), mk(80, 50), metrics); bad != 1 {
		t.Errorf("qps 20%% lower flagged %d", bad)
	}
	if bad := CompareAA(&buf, mk(100, 50), mk(125, 40), metrics); bad != 2 {
		t.Errorf("second run much better on two metrics flagged %d", bad)
	}
	if !strings.Contains(buf.String(), "DISAGREE") {
		t.Error("table does not mark the disagreement")
	}
}
