package dnsmsg

import (
	"bytes"
	"testing"
)

var pool = [][4]byte{{192, 0, 2, 1}, {192, 0, 2, 2}, {192, 0, 2, 3}, {192, 0, 2, 4}}

func twelve() [][4]byte {
	var out [][4]byte
	for len(out) < 12 {
		out = append(out, pool...)
	}
	return out
}

func TestQueryEncoding(t *testing.T) {
	q, err := Query("pool.ntppool.test.")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		4, 'p', 'o', 'o', 'l', 7, 'n', 't', 'p', 'p', 'o', 'o', 'l', 4, 't', 'e', 's', 't', 0, 0, 1, 0, 1}
	if !bytes.Equal(q, want) {
		t.Errorf("query = %v\nwant    %v", q, want)
	}
	SetID(q, 0xBEEF)
	if ID(q) != 0xBEEF {
		t.Errorf("ID = %#x", ID(q))
	}
	if f := Frame(q); len(f) != len(q)+2 || int(f[0])<<8|int(f[1]) != len(q) {
		t.Errorf("frame prefix %v for %d bytes", f[:2], len(q))
	}
	for _, bad := range []string{"", "a..b", string(make([]byte, 64)) + ".test"} {
		if _, err := Query(bad); err == nil {
			t.Errorf("Query(%q) accepted", bad)
		}
	}
}

func TestCheckReasons(t *testing.T) {
	c := &Checker{Answers: 12, Benign: pool, MaxTTL: 150}
	q, _ := Query("pool.ntppool.test.")
	SetID(q, 7)
	good := func() []byte { return Response(q, RcodeNoError, twelve(), 150) }
	last := func(resp []byte) []byte { return resp[len(resp)-16:] } // the final A record

	cases := []struct {
		name  string
		resp  func() []byte
		rcode int
		want  Reason
	}{
		{"valid", good, RcodeNoError, OK},
		{"valid at ttl 1", func() []byte { return Response(q, RcodeNoError, twelve(), 1) }, RcodeNoError, OK},
		{"expected servfail", func() []byte { return Response(q, RcodeServFail, nil, 0) }, RcodeServFail, OK},
		{"short", func() []byte { return good()[:10] }, RcodeNoError, Malformed},
		{"cut inside an answer", func() []byte { r := good(); return r[:len(r)-3] }, RcodeNoError, Malformed},
		{"wrong id", func() []byte { r := good(); r[1]++; return r }, RcodeNoError, WrongID},
		{"qr clear", func() []byte { r := good(); r[2] &^= 0x80; return r }, RcodeNoError, NotResponse},
		{"servfail for a resolvable name", func() []byte { return Response(q, RcodeServFail, nil, 0) }, RcodeNoError, WrongRcode},
		{"noerror for an unresolvable name", good, RcodeServFail, WrongRcode},
		{"other question", func() []byte { r := good(); r[13] ^= 1; return r }, RcodeNoError, WrongQuestion},
		{"two questions", func() []byte { r := good(); r[5] = 2; return r }, RcodeNoError, WrongQuestion},
		{"eleven answers", func() []byte { return Response(q, RcodeNoError, twelve()[:11], 150) }, RcodeNoError, WrongAnswerCount},
		{"servfail with answers", func() []byte { return Response(q, RcodeServFail, twelve(), 150) }, RcodeServFail, WrongAnswerCount},
		{"aaaa record", func() []byte { r := good(); last(r)[3] = 28; return r }, RcodeNoError, WrongRecord},
		{"attack prefix", func() []byte { r := good(); copy(last(r)[12:], []byte{198, 18, 0, 1}); return r }, RcodeNoError, ForeignAddr},
		{"address outside the pool", func() []byte { r := good(); last(r)[15] = 9; return r }, RcodeNoError, ForeignAddr},
		{"ttl zero", func() []byte { return Response(q, RcodeNoError, twelve(), 0) }, RcodeNoError, BadTTL},
		{"ttl above the zone's", func() []byte { return Response(q, RcodeNoError, twelve(), 151) }, RcodeNoError, BadTTL},
	}
	for _, tc := range cases {
		if got := c.Check(tc.resp(), q, tc.rcode); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCheckAcceptsUncompressedOwnerNames(t *testing.T) {
	c := &Checker{Answers: 1, Benign: pool, MaxTTL: 150}
	q, _ := Query("a.test")
	resp := Response(q, RcodeNoError, nil, 0)
	resp[7] = 1
	resp = append(resp, 1, 'a', 4, 't', 'e', 's', 't', 0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1)
	if got := c.Check(resp, q, RcodeNoError); got != OK {
		t.Errorf("uncompressed owner name: %s", got)
	}
}

func TestCheckDoesNotAllocate(t *testing.T) {
	c := &Checker{Answers: 12, Benign: pool, MaxTTL: 150}
	q, _ := Query("pool.ntppool.test.")
	resp := Response(q, RcodeNoError, twelve(), 150)
	if n := testing.AllocsPerRun(100, func() { c.Check(resp, q, RcodeNoError) }); n != 0 {
		t.Errorf("Check allocates %v times per call", n)
	}
}
