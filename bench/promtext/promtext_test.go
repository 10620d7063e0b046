package promtext

import (
	"os"
	"strings"
	"testing"
)

func load(t *testing.T, name string) Scrape {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The fixtures are two scrapes of a live dohpoold: four UDP queries (two
// misses, one SERVFAIL, one hit) before the first, three more (two hits,
// one miss) between them.
func TestDeltaOfCapturedScrapes(t *testing.T) {
	before, after := load(t, "scrape_before.txt"), load(t, "scrape_after.txt")
	d := Delta(after, before)
	for _, c := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"dohpool_frontend_queries_total", []string{"proto", "udp"}, 3},
		{"dohpool_frontend_queries_total", nil, 3},
		{"dohpool_frontend_queries_total", []string{"proto", "doh"}, 0},
		{"dohpool_wire_cache_hits_total", nil, 2},
		{"dohpool_engine_generations_total", []string{"trigger", "inline"}, 1},
		{"dohpool_resolver_exchanges_total", []string{"result", "ok"}, 3},
		{"dohpool_resolver_exchanges_total", []string{"result", "ok", "resolver", "resolver-1"}, 1},
		{"dohpool_frontend_latency_seconds_count", []string{"proto", "udp"}, 1},
		{"dohpool_frontend_responses_total", []string{"rcode", "SERVFAIL"}, 0},
	} {
		got, ok := d.Sum(c.name, c.match...)
		if !ok || got != c.want {
			t.Errorf("Δ%s%v = %v (present %v), want %v", c.name, c.match, got, ok, c.want)
		}
	}
	if v, _ := before.Sum("dohpool_frontend_responses_total", "rcode", "SERVFAIL"); v != 1 {
		t.Errorf("SERVFAIL before = %v, want 1", v)
	}
	if sum, _ := d.Sum("dohpool_engine_pool_generation_seconds_sum"); sum <= 0 {
		t.Errorf("generation seconds did not grow: %v", sum)
	}
}

func TestByLabelSplitsAFamily(t *testing.T) {
	d := Delta(load(t, "scrape_after.txt"), load(t, "scrape_before.txt"))
	got := d.ByLabel("dohpool_frontend_udp_socket_packets_total", "socket")
	if len(got) != 2 || got["0"] != 2 || got["1"] != 1 {
		t.Errorf("packets per socket = %v, want 0:2 1:1", got)
	}
	if got := d.ByLabel("dohpool_no_such_family_total", "socket"); got != nil {
		t.Errorf("missing family = %v, want nil", got)
	}
}

func TestMissingFamilyIsNotZero(t *testing.T) {
	s := load(t, "scrape_after.txt")
	if v, ok := s.Sum("dohpool_no_such_family_total"); ok || v != 0 {
		t.Errorf("missing family reported as present (%v)", v)
	}
	// A family that exists but has no series with that label value is a
	// real zero.
	if v, ok := s.Sum("dohpool_frontend_queries_total", "proto", "quic"); !ok || v != 0 {
		t.Errorf("unmatched label: %v present %v", v, ok)
	}
}

func TestParseLabelEscapesAndErrors(t *testing.T) {
	s, err := Parse(strings.NewReader("# HELP x y\nx{a=\"q\\\"uo,te\",b=\"2\"} 1.5e3\ny 2\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Sum("x", "a", `q"uo,te`, "b", "2"); !ok || v != 1500 {
		t.Errorf("x = %v present %v", v, ok)
	}
	if v, _ := s.Sum("y"); v != 2 {
		t.Errorf("y = %v", v)
	}
	for _, bad := range []string{"novalue", "x{a=\"1\" 2", "x{a=1} 2", "x 1 notanumber"} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestDeltaNewSeriesCountsFromZero(t *testing.T) {
	before, _ := Parse(strings.NewReader("a{l=\"1\"} 5\ngone 1\n"))
	after, _ := Parse(strings.NewReader("a{l=\"1\"} 7\na{l=\"2\"} 3\n"))
	d := Delta(after, before)
	if v, _ := d.Sum("a"); v != 5 {
		t.Errorf("Δa = %v, want 5", v)
	}
	if _, ok := d.Sum("gone"); ok {
		t.Error("a series only before has must not appear in the delta")
	}
}
