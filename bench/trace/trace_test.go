package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileSelfTimesAndParents(t *testing.T) {
	log := &Log{}
	log.Add("probe:x", "", 5000, 5400)
	log.Add("probe:x", "", 5400, 5900)

	// One worker, two requests back to back inside a 1000 ns segment, and
	// one that ends after it.
	rec := NewRecorder(2, 100)
	rec.Add(3, &Stamps{100, 110, 150, 400, 420})
	rec.Add(4, &Stamps{430, 440, 470, 900, 910})
	rec.Add(5, &Stamps{920, 930, 960, 1200, 1210}) // counted, not kept

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	seg := []Window{{Name: "segment-1", StartNs: 0, EndNs: 1000}}
	if err := log.WriteFile(path, "w", 9, seg, []*Recorder{rec}, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || f.Seed != 9 || f.Requests != 3 || f.Kept != 2 {
		t.Errorf("header %+v", f)
	}
	want := map[string]int64{
		"build": 10 + 10 + 10, "send": 40 + 30 + 30, "wait": 250 + 430 + 240, "validate": 20 + 10 + 10,
		"probe:x": 900,
		// 1000 ns of segment, one worker, minus the 1090 ns its requests
		// cover: the third request runs past the segment's end.
		"segment": 1000 - 1090,
	}
	for name, ns := range want {
		if f.SelfNs[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, f.SelfNs[name], ns)
		}
	}
	byName := map[string]int{}
	for _, s := range f.Spans {
		byName[s.Name]++
		switch s.Name {
		case "segment", "probe:x":
			if s.Parent != "" {
				t.Errorf("%s has parent %q", s.ID, s.Parent)
			}
		default:
			if s.Parent != "segment-1" {
				t.Errorf("%s has parent %q, want the segment", s.ID, s.Parent)
			}
			if s.Request != 100 && s.Request != 101 {
				t.Errorf("%s has request id %d", s.ID, s.Request)
			}
		}
	}
	if byName["segment"] != 1 || byName["probe:x"] != 2 || byName["wait"] != 2 || byName["build"] != 2 {
		t.Errorf("span counts %v", byName)
	}
}

func TestOverlappingRequestsGetNoSegmentSelfTime(t *testing.T) {
	rec := NewRecorder(1, 0)
	rec.Add(0, &Stamps{0, 1, 2, 900, 901})
	rec.Add(0, &Stamps{1, 2, 3, 950, 951})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := (&Log{}).WriteFile(path, "w", 1, []Window{{Name: "s", StartNs: 0, EndNs: 1000}}, []*Recorder{rec}, false); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.SelfNs["segment"]; ok {
		t.Error("a windowed worker's overlapping waits must not yield a segment self time")
	}
}
