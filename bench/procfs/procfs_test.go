package procfs

import (
	"os"
	"testing"
	"time"
)

// testdata/proc was copied from a live dohpoold (8 threads, two of them
// kept under task/).
func TestReadFixture(t *testing.T) {
	s, err := readFrom("testdata/proc")
	if err != nil {
		t.Fatal(err)
	}
	want := Sample{User: 10 * time.Millisecond, Sys: 0, Threads: 8, HWMkB: 10628, Voluntary: 70, Involuntary: 21}
	if s != want {
		t.Errorf("got %+v, want %+v", s, want)
	}
	if s.CPU() != 10*time.Millisecond {
		t.Errorf("CPU() = %v", s.CPU())
	}
}

func TestParseStatCommandNameWithSpacesAndParens(t *testing.T) {
	line := []byte("42 (a b) c)) S 1 42 42 0 -1 4194560 914 156 2 0 123 45 0 0 20 0 8 0 135252 1791610880 2631 0\n")
	user, sys, err := ParseStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if user != 1230*time.Millisecond || sys != 450*time.Millisecond {
		t.Errorf("user %v sys %v", user, sys)
	}
}

func TestParseStatRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "no parens here", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, _, err := ParseStat([]byte(in)); err == nil {
			t.Errorf("ParseStat(%q) accepted", in)
		}
	}
}

func TestReadSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no procfs")
	}
	before, err := Read(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
	}
	after, err := Read(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after.CPU() < before.CPU() || after.Threads < 1 || after.HWMkB == 0 {
		t.Errorf("before %+v after %+v", before, after)
	}
	if d := after.CPU() - before.CPU(); d < Tick {
		t.Errorf("50 ms of spinning accounted as %v", d)
	}
}
