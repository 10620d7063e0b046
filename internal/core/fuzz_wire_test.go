package core

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dohpool/internal/dnswire"
)

// slowServeWire is handleUDP as it was before any answer was copied from
// a wire entry, minus the socket I/O: strict decode, the message respond
// builds when it is given no raw query to patch an entry for, encoded
// here, honouring the advertised payload size, truncated by stripping
// sections. It is the oracle FuzzWireFastPath holds the allocation-free
// fast path against, and the differential tests every served-after-miss
// answer.
func slowServeWire(f *Frontend, wire []byte) ([]byte, bool) {
	query, err := dnswire.Decode(wire)
	if err != nil {
		return nil, false
	}
	resp := f.respond(context.Background(), query, nil, dnswire.MaxMessageSize, &f.inst.udp).msg
	maxSize := dnswire.MaxUDPSize
	if size, ok := query.EDNSSize(); ok && int(size) > maxSize {
		maxSize = int(size)
	}
	respWire, err := resp.Encode()
	if err != nil {
		return nil, false
	}
	if len(respWire) > maxSize {
		truncated := resp.Copy()
		truncated.Answers = nil
		truncated.Authority = nil
		truncated.Additional = nil
		truncated.Header.Truncated = true
		if respWire, err = truncated.Encode(); err != nil {
			return nil, false
		}
	}
	return respWire, true
}

// FuzzWireFastPath is the dynamic gate behind the strict UDP fast path:
// any datagram answerWire serves must carry bytes identical to the
// decode→build→encode slow path, and any query parseWireQuery accepts
// must also satisfy the strict decoder, with both agreeing on the cache
// key and the honoured payload size. Inputs the fast path rejects are
// out of scope here — FuzzDecode in internal/dnswire owns the decoder's
// own robustness.
func FuzzWireFastPath(f *testing.F) {
	// Each resolver answers both families so the A and the AAAA wire
	// entries warm (manyAddrs is v4-only; swapQuerier filters by family).
	v6 := func(base, n int) []netip.Addr {
		out := make([]netip.Addr, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", base+i+1)))
		}
		return out
	}
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": append(manyAddrs(0, 40), v6(0, 40)...),
		"u1": append(manyAddrs(1000, 40), v6(1000, 40)...),
		"u2": append(manyAddrs(2000, 40), v6(2000, 40)...),
	}}
	clk := newTestClock()
	eng, fastFE := wireEngineUnderTest(f, q, clk, EngineConfig{})
	slowFE, err := NewFrontendWithConfig("127.0.0.1:0", slowOnlyBackend{eng}, FrontendConfig{Timeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = slowFE.Close() })

	// Warm the wire cache through the same backend path handleUDP takes;
	// with the frozen test clock the entries never age out, so every
	// fuzz iteration sees identical cache state.
	ctx := context.Background()
	for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
		if _, err := eng.Lookup(ctx, "pool.test.", typ); err != nil {
			f.Fatal(err)
		}
	}
	full, _, ok := eng.WireLookup([]byte("pool.test.|1"), false)
	if !ok {
		f.Fatal("wire cache not populated after warm-up lookups")
	}

	f.Add(rawQueryBytes(f, 0x1234, "pool.test.", dnswire.TypeA, 4096, true, false))
	f.Add(rawQueryBytes(f, 1, "pool.test.", dnswire.TypeA, 0, true, false))
	f.Add(rawQueryBytes(f, 2, "pool.test.", dnswire.TypeAAAA, 512, false, true))
	f.Add(rawQueryBytes(f, 3, "POOL.Test.", dnswire.TypeA, 1232, false, false))
	f.Add(rawQueryBytes(f, 4, "pool.test.", dnswire.TypeA, len(full.Full), true, true))
	f.Add(rawQueryBytes(f, 5, "pool.test.", dnswire.TypeA, len(full.Full)-1, true, false))
	f.Add(rawQueryBytes(f, 6, "other.test.", dnswire.TypeA, 4096, true, false))
	f.Add(append(rawQueryBytes(f, 7, "pool.test.", dnswire.TypeA, 0, true, false), 0xFF))
	f.Add(rawQueryBytes(f, 8, "pool.test.", dnswire.TypeA, 4096, true, false)[:17])

	var scratch [wireKeyMax]byte
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > udpPacketBuf {
			// The kernel truncates oversized datagrams before the fast
			// path ever sees them.
			return
		}
		key, maxSize, _, pOK := parseWireQuery(data, scratch[:0])
		if pOK {
			msg, err := dnswire.Decode(data)
			if err != nil {
				t.Fatalf("fast parser accepted bytes the strict decoder rejects: %v\nquery % x", err, data)
			}
			if len(msg.Questions) != 1 {
				t.Fatalf("fast parser accepted a message with %d questions", len(msg.Questions))
			}
			qq := msg.Questions[0]
			if qq.Class != dnswire.ClassINET {
				t.Fatalf("fast parser accepted class %d", qq.Class)
			}
			want := qq.Name
			switch qq.Type {
			case dnswire.TypeA:
				want += "|1"
			case dnswire.TypeAAAA:
				want += "|28"
			default:
				t.Fatalf("fast parser accepted qtype %d", qq.Type)
			}
			if string(key) != want {
				t.Fatalf("fast parser built cache key %q, decoder says %q", key, want)
			}
			wantMax := dnswire.MaxUDPSize
			if size, ok := msg.EDNSSize(); ok && int(size) > wantMax {
				wantMax = int(size)
			}
			if maxSize != wantMax {
				t.Fatalf("fast parser honoured size %d, decoder says %d", maxSize, wantMax)
			}
		}

		pkt := packetFor(data)
		if !fastFE.answerWire(pkt) {
			return
		}
		fast := pkt.dg.Buf[:pkt.dg.N]
		slow, ok := slowServeWire(slowFE, data)
		if !ok {
			t.Fatalf("fast path served a datagram the slow path drops:\nquery % x", data)
		}
		if !bytes.Equal(fast, slow) {
			t.Fatalf("fast path diverged from slow path:\nquery % x\nfast  % x\nslow  % x", data, fast, slow)
		}
	})
}
