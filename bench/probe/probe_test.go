package probe

import (
	"testing"
	"time"
)

func TestMeasureCountsAllocations(t *testing.T) {
	var sink []byte
	c := Measure("alloc", nil, time.Time{}, func() { sink = make([]byte, 64) })
	_ = sink
	if c.Allocs < 0.9 || c.Allocs > 1.1 {
		t.Errorf("one allocation per call measured as %.2f", c.Allocs)
	}
	if c.Ns <= 0 {
		t.Errorf("ns/op = %v", c.Ns)
	}
}
