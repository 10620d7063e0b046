// Package dnsmsg is the benchmark's own view of the DNS wire format: it
// encodes the queries the generators send, checks every response byte by
// byte, and builds the canned responses the fake servers return. It
// imports nothing from dohpool, so the code under test cannot vouch for
// itself.
package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Response codes the benchmark expects.
const (
	RcodeNoError  = 0
	RcodeServFail = 2
)

const (
	headerLen = 12
	typeA     = 1
	classIN   = 1
)

// Query encodes a recursion-desired A/IN query for name with ID 0 and no
// EDNS record — what a plain stub sends.
func Query(name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	b := make([]byte, headerLen, headerLen+len(name)+6)
	b[2] = 0x01 // RD
	b[5] = 1    // QDCOUNT
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("dnsmsg: bad label in %q", name)
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	b = append(b, 0, 0, typeA, 0, classIN)
	return b, nil
}

// SetID patches the message ID in place.
func SetID(msg []byte, id uint16) { binary.BigEndian.PutUint16(msg, id) }

// ID reads the message ID; msg must hold at least a header.
func ID(msg []byte) uint16 { return binary.BigEndian.Uint16(msg) }

// Frame returns msg behind the two-byte length prefix of RFC 7766.
func Frame(msg []byte) []byte {
	out := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(out, uint16(len(msg)))
	copy(out[2:], msg)
	return out
}

// Response builds a response to query: the query's ID, RD flag and
// question, QR and RA set, the given rcode, and one A record per addr
// whose owner is a compression pointer to the question name.
func Response(query []byte, rcode int, addrs [][4]byte, ttl uint32) []byte {
	out := make([]byte, len(query), len(query)+16*len(addrs))
	copy(out, query)
	out[2] = 0x80 | query[2]&0x01
	out[3] = 0x80 | byte(rcode)
	binary.BigEndian.PutUint16(out[6:], uint16(len(addrs)))
	for _, a := range addrs {
		out = append(out, 0xC0, headerLen, 0, typeA, 0, classIN)
		out = binary.BigEndian.AppendUint32(out, ttl)
		out = append(out, 0, 4, a[0], a[1], a[2], a[3])
	}
	return out
}

// Reason says why a response was rejected.
type Reason uint8

// Rejection reasons, in the order Check tests them.
const (
	OK Reason = iota
	Malformed
	WrongID
	NotResponse
	WrongRcode
	WrongQuestion
	WrongAnswerCount
	WrongRecord
	ForeignAddr
	BadTTL
	numReasons
)

// NumReasons sizes per-reason counters.
const NumReasons = int(numReasons)

var reasonNames = [...]string{"ok", "malformed", "wrong_id", "not_response", "wrong_rcode",
	"wrong_question", "wrong_answer_count", "wrong_record", "foreign_addr", "bad_ttl"}

func (r Reason) String() string { return reasonNames[r] }

// Checker holds what a valid NOERROR answer looks like in one workload.
type Checker struct {
	// Answers is the exact answer count (resolvers × K).
	Answers int
	// Benign lists every address the zone serves; anything else —
	// the attack prefix included — is foreign.
	Benign [][4]byte
	// MaxTTL is the zone TTL; answers must carry 1 ≤ TTL ≤ MaxTTL.
	MaxTTL uint32
}

// Check validates resp against the query that caused it (already carrying
// the ID that was sent) and the rcode its class of name must produce. It
// allocates nothing.
func (c *Checker) Check(resp, query []byte, wantRcode int) Reason {
	if len(resp) < len(query) || len(query) < headerLen {
		return Malformed
	}
	if resp[0] != query[0] || resp[1] != query[1] {
		return WrongID
	}
	if resp[2]&0x80 == 0 {
		return NotResponse
	}
	if int(resp[3]&0x0F) != wantRcode {
		return WrongRcode
	}
	if binary.BigEndian.Uint16(resp[4:]) != 1 || string(resp[headerLen:len(query)]) != string(query[headerLen:]) {
		return WrongQuestion
	}
	answers := int(binary.BigEndian.Uint16(resp[6:]))
	if wantRcode != RcodeNoError {
		if answers != 0 {
			return WrongAnswerCount
		}
		return OK
	}
	if answers != c.Answers {
		return WrongAnswerCount
	}
	off := len(query)
	for i := 0; i < answers; i++ {
		var err error
		if off, err = skipName(resp, off); err != nil || off+10 > len(resp) {
			return Malformed
		}
		typ := binary.BigEndian.Uint16(resp[off:])
		class := binary.BigEndian.Uint16(resp[off+2:])
		ttl := binary.BigEndian.Uint32(resp[off+4:])
		rdlen := int(binary.BigEndian.Uint16(resp[off+8:]))
		off += 10
		if off+rdlen > len(resp) {
			return Malformed
		}
		if typ != typeA || class != classIN || rdlen != 4 {
			return WrongRecord
		}
		if !c.IsBenign([4]byte(resp[off : off+4])) {
			return ForeignAddr
		}
		if ttl < 1 || ttl > c.MaxTTL {
			return BadTTL
		}
		off += rdlen
	}
	return OK
}

// IsBenign reports whether a is one of the zone's addresses.
func (c *Checker) IsBenign(a [4]byte) bool {
	for _, b := range c.Benign {
		if a == b {
			return true
		}
	}
	return false
}

var errName = errors.New("dnsmsg: bad name")

// skipName steps over an owner name: labels ended by a zero byte or by a
// compression pointer.
func skipName(msg []byte, off int) (int, error) {
	for off < len(msg) {
		l := int(msg[off])
		switch {
		case l == 0:
			return off + 1, nil
		case l&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return 0, errName
			}
			return off + 2, nil
		case l > 63:
			return 0, errName
		}
		off += 1 + l
	}
	return 0, errName
}
