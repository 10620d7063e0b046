package gen

import (
	"encoding/binary"
	"io"
	"net"
	"time"

	"dohpool/bench/dnsmsg"
	"dohpool/bench/trace"
)

// Stream exchanges length-framed DNS messages (RFC 7766) over one
// persistent connection — plain TCP, or TLS for DoT, whichever dial gives.
type Stream struct {
	dial    func() (net.Conn, error)
	conn    net.Conn
	names   *Names
	check   *dnsmsg.Checker
	timeout time.Duration
	base    time.Time
	framed  [][]byte // names.Queries behind their length prefix
	send    []byte
	recv    []byte
}

// NewStream connects and pre-frames every query.
func NewStream(dial func() (net.Conn, error), names *Names, check *dnsmsg.Checker, timeout time.Duration, base time.Time) (*Stream, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	s := &Stream{dial: dial, conn: conn, names: names, check: check, timeout: timeout, base: base,
		framed: make([][]byte, len(names.Queries)), send: make([]byte, 0, 514), recv: make([]byte, 4096)}
	for i, q := range names.Queries {
		s.framed[i] = dnsmsg.Frame(q)
	}
	return s, nil
}

// Exchange implements Exchanger.
func (s *Stream) Exchange(name uint32, id uint16, st *trace.Stamps) Outcome {
	if s.conn == nil {
		// The previous exchange broke the framing; start over.
		conn, err := s.dial()
		if err != nil {
			time.Sleep(time.Millisecond)
			return IOError
		}
		s.conn = conn
	}
	s.send = append(s.send[:0], s.framed[name]...)
	dnsmsg.SetID(s.send[2:], id)
	_ = s.conn.SetDeadline(time.Now().Add(s.timeout))
	if st != nil {
		st[1] = int64(time.Since(s.base))
	}
	if _, err := s.conn.Write(s.send); err != nil {
		return s.broken(err)
	}
	if st != nil {
		st[2] = int64(time.Since(s.base))
	}
	if _, err := io.ReadFull(s.conn, s.recv[:2]); err != nil {
		return s.broken(err)
	}
	n := int(binary.BigEndian.Uint16(s.recv))
	if n > len(s.recv) {
		return s.broken(io.ErrShortBuffer)
	}
	if _, err := io.ReadFull(s.conn, s.recv[:n]); err != nil {
		return s.broken(err)
	}
	if st != nil {
		st[3] = int64(time.Since(s.base))
	}
	return Outcome(s.check.Check(s.recv[:n], s.send[2:], int(s.names.Rcode[name])))
}

func (s *Stream) broken(err error) Outcome {
	_ = s.conn.Close()
	s.conn = nil
	return failure(err)
}

// Close implements Exchanger.
func (s *Stream) Close() {
	if s.conn != nil {
		_ = s.conn.Close()
	}
}
