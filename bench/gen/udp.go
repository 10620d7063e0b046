package gen

import (
	"errors"
	"net"
	"os"
	"time"

	"dohpool/bench/dnsmsg"
	"dohpool/bench/trace"
)

// MaxWindow is the largest UDP window: the slot index lives in the low
// bits of the query ID.
const MaxWindow = 32

// UDPShape is how a UDP worker keeps its window full.
type UDPShape struct {
	// Window is the number of queries outstanding on the socket, a power
	// of two up to MaxWindow. 1 is ping-pong.
	Window int
	// Burst sends the whole window back to back and reads all of it
	// before the next send; otherwise a slot is refilled as soon as it is
	// answered.
	Burst bool
}

type udpSlot struct {
	busy   bool
	phase  int32 // the segment it was sent in
	id     uint16
	name   uint32
	stamps trace.Stamps // [0..2] set at send; traced requests only
	traced bool
	sent   int64
}

// UDP runs one closed-loop worker on one connected UDP socket until the
// control says stop and every query it sent in a measured segment has been
// answered or has timed out. A slot unanswered after the timeout fails and
// is reused; a datagram that matches no outstanding slot is a stray and is
// ignored, as a stub would.
func UDP(o Options, conn *net.UDPConn, check *dnsmsg.Checker, shape UDPShape) *Result {
	w := newWorker(o)
	slots := make([]udpSlot, shape.Window)
	mask := uint16(shape.Window - 1)
	// One send buffer per slot: the query that is outstanding stays intact
	// for the validator to compare against.
	sendBufs := make([][]byte, shape.Window)
	for i := range sendBufs {
		sendBufs[i] = make([]byte, 0, 512)
	}
	recv := make([]byte, 4096)
	var seq uint16
	free := shape.Window
	measured := 0  // busy slots sent in a measured segment
	rearm := false // the read deadline must move before the next read
	release := func(s *udpSlot, latNs int64, out Outcome) {
		s.busy = false
		free++
		if s.phase >= 0 {
			measured--
		}
		w.book(s.phase, s.name, latNs, out)
	}

	for {
		phase := w.ctl.phase.Load()
		if phase == PhaseStop && measured == 0 {
			return &w.res
		}
		// Fill: every free slot, or in burst mode only an empty window.
		// After the stop nothing is sent; what is outstanding drains.
		if phase != PhaseStop && free > 0 && (!shape.Burst || free == shape.Window) {
			traced := w.tracing()
			for i := range slots {
				s := &slots[i]
				if s.busy {
					continue
				}
				t0 := w.now()
				s.name = w.next()
				s.phase = phase
				seq++
				s.id = seq<<5 | uint16(i)
				buf := append(sendBufs[i][:0], w.names.Queries[s.name]...)
				dnsmsg.SetID(buf, s.id)
				sendBufs[i] = buf
				s.traced = traced
				if traced {
					s.stamps[0], s.stamps[1] = t0, w.now()
				}
				s.sent = t0
				_, err := conn.Write(buf)
				if traced {
					s.stamps[2] = w.now()
				}
				if err != nil {
					// Loopback refuses a send only when the server's port
					// is gone (ECONNREFUSED from an earlier ICMP error).
					w.book(phase, s.name, 0, IOError)
					continue
				}
				s.busy = true
				free--
				if phase >= 0 {
					measured++
				}
			}
			if free == shape.Window { // nothing could be sent
				time.Sleep(time.Millisecond)
				continue
			}
			rearm = true
		}
		if rearm {
			// The read may wait until the oldest outstanding query times out.
			oldest := int64(1<<63 - 1)
			for i := range slots {
				if slots[i].busy && slots[i].sent < oldest {
					oldest = slots[i].sent
				}
			}
			_ = conn.SetReadDeadline(w.base.Add(time.Duration(oldest) + w.timeout))
			rearm = false
		}

		n, err := conn.Read(recv)
		now := w.now()
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				// ECONNREFUSED surfaces on read too; the slots it belongs
				// to expire by the timeout below like any lost datagram.
				time.Sleep(time.Millisecond)
			}
			for i := range slots {
				if s := &slots[i]; s.busy && now-s.sent >= int64(w.timeout) {
					release(s, 0, Timeout)
				}
			}
			// A burst still waiting for its rest reads on without a refill.
			rearm = free < shape.Window
			continue
		}
		if n < 2 {
			w.res.Strays++
			continue
		}
		id := dnsmsg.ID(recv)
		s := &slots[id&mask]
		if !s.busy || s.id != id {
			w.res.Strays++
			continue
		}
		reason := check.Check(recv[:n], sendBufs[id&mask], int(w.names.Rcode[s.name]))
		end := w.now()
		if s.traced {
			s.stamps[3], s.stamps[4] = now, end
			w.rec.Add(s.name, &s.stamps)
		}
		release(s, end-s.sent, Outcome(reason))
	}
}
