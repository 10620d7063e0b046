package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// refValidateName and refAppendName are the encoder as it stood before the
// single-pass rewrite, kept verbatim as the reference the rewrite is held
// against: validate through SplitLabels, canonicalise three times, key the
// compression map with strings.Join of every suffix.

func refValidateName(name string) error {
	name = CanonicalName(name)
	if name == "." {
		return nil
	}
	// Wire form length: one length octet per label plus label bytes plus
	// the terminating zero octet.
	wireLen := 1
	for _, label := range SplitLabels(name) {
		if len(label) == 0 {
			return fmt.Errorf("%q: %w", name, ErrEmptyLabel)
		}
		if len(label) > MaxLabelLength {
			return fmt.Errorf("%q: %w", name, ErrLabelTooLong)
		}
		wireLen += 1 + len(label)
	}
	if wireLen > MaxNameLength {
		return fmt.Errorf("%q: %w", name, ErrNameTooLong)
	}
	return nil
}

func refAppendName(buf []byte, name string, cmap map[string]int) ([]byte, error) {
	if err := refValidateName(name); err != nil {
		return buf, err
	}
	name = CanonicalName(name)
	labels := SplitLabels(name)
	for i := range labels {
		suffix := strings.Join(labels[i:], ".") + "."
		if cmap != nil {
			if off, ok := cmap[suffix]; ok {
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if off := len(buf); off < 0x3FFF {
				cmap[suffix] = off
			}
		}
		buf = append(buf, byte(len(labels[i])))
		buf = append(buf, labels[i]...)
	}
	return append(buf, 0), nil
}

// nameErrors are the sentinels a name can fail with.
var nameErrors = []error{ErrEmptyLabel, ErrLabelTooLong, ErrNameTooLong}

// sameNameError reports whether two encoder errors are errors.Is-identical
// over the name sentinels and read the same.
func sameNameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for _, sentinel := range nameErrors {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return a.Error() == b.Error()
}

// checkAppendNames encodes names in order through both encoders, each with
// its own buffer (prefilled with pad octets, so offsets are not the trivial
// ones) and its own compression map (none when compress is false), and
// fails on the first difference in bytes, errors or map contents. The
// reference keys suffixes with their trailing dot, the rewrite without:
// that is the one spelling difference allowed.
func checkAppendNames(t *testing.T, pad int, compress bool, names ...string) {
	t.Helper()
	got, want := make([]byte, pad), make([]byte, pad)
	var gotMap compressionMap
	var wantMap map[string]int
	if compress {
		gotMap, wantMap = compressionMap{}, map[string]int{}
	}
	for _, name := range names {
		var gotErr, wantErr error
		got, gotErr = appendName(got, name, gotMap)
		want, wantErr = refAppendName(want, name, wantMap)
		if !sameNameError(gotErr, wantErr) {
			t.Fatalf("appendName(%q): error %v, reference %v", name, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendName(%q): bytes differ\ngot  %x\nwant %x", name, got[pad:], want[pad:])
		}
		if len(gotMap) != len(wantMap) {
			t.Fatalf("appendName(%q): %d map entries %v, reference %d %v", name, len(gotMap), gotMap, len(wantMap), wantMap)
		}
		for suffix, off := range wantMap {
			if gotOff, ok := gotMap[strings.TrimSuffix(suffix, ".")]; !ok || gotOff != off {
				t.Fatalf("appendName(%q): suffix %q at %d (present %v), reference %d", name, suffix, gotOff, ok, off)
			}
		}
	}
}

func TestAppendNameMatchesReference(t *testing.T) {
	label63, label64 := strings.Repeat("a", 63), strings.Repeat("b", 64)
	// 255 octets of wire form: three 63-octet labels and one of 61; one
	// more octet in the last label makes 256.
	name255 := strings.Join([]string{label63, label63, label63, strings.Repeat("c", 61)}, ".")
	name256 := strings.Join([]string{label63, label63, label63, strings.Repeat("c", 62)}, ".")
	tests := []struct {
		name  string
		pad   int
		names []string
	}{
		{"root", 12, []string{".", "", " "}},
		{"simple", 12, []string{"example.org", "example.org."}},
		{"label of 63", 12, []string{label63 + ".org"}},
		{"label of 64", 12, []string{"ok.org", label64 + ".org", "www.ok.org"}},
		{"name of 255", 12, []string{name255, "x." + name255[64:]}},
		{"name of 256", 12, []string{name256, "org"}},
		{"long label inside a long name", 12, []string{label64 + "." + name256}},
		{"empty inner label", 12, []string{"a..b", "b"}},
		{"empty first label", 12, []string{".a"}},
		{"only dots", 12, []string{"..", "..."}},
		{"empty label after a long name", 12, []string{name256 + ".."}},
		{"mixed case", 12, []string{"Pool.NTP.org", "pool.ntp.ORG.", "WWW.pool.ntp.org"}},
		{"whitespace", 12, []string{"  pool.ntp.org  ", "\tntp.org.\n"}},
		{"shared suffix then a third", 12, []string{"a.pool.test.", "b.pool.test.", "test.", "c.b.pool.test"}},
		{"root between names", 12, []string{"a.test", ".", "b.test"}},
		{"non-ascii", 12, []string{"Bücher.example", "bücher.EXAMPLE", "\xff\xfe.example"}},
		// The first name starts at 0x3FFE and is entered; its second label
		// starts beyond 0x3FFF and must not be, nor anything after it.
		{"offsets around 0x3FFF", 0x3FFE, []string{"a.b.c", "b.c", "a.b.c", "c"}},
		{"first emitted at 0x3FFF", 0x3FFF, []string{"late.test", "late.test", "test"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkAppendNames(t, tt.pad, true, tt.names...)
			checkAppendNames(t, tt.pad, false, tt.names...)
		})
	}
}

// TestValidateNameMatchesReference holds the exported validator, which
// now shares the encoder's label walk, to the one it replaced.
func TestValidateNameMatchesReference(t *testing.T) {
	label64 := strings.Repeat("b", 64)
	for _, name := range []string{
		"", ".", "..", "a..b", ".a", "a.", "a..", "example.org", "EXAMPLE.org.",
		label64, label64 + "..", strings.Repeat("abcdefg.", 32), strings.Repeat("abcdefg.", 31) + "abcdef",
		strings.Repeat("abcdefg.", 32) + ".", " spaced.example ",
	} {
		if got, want := ValidateName(name), refValidateName(name); !sameNameError(got, want) {
			t.Errorf("ValidateName(%q) = %v, reference %v", name, got, want)
		}
	}
}

// FuzzAppendName encodes three fuzzer-chosen names in a row — so the
// second and third meet whatever the earlier ones left in the map — at a
// fuzzer-chosen offset on either side of the 14-bit pointer limit.
func FuzzAppendName(f *testing.F) {
	f.Add("a.pool.test.", "b.pool.test.", "test", uint16(12), true)
	f.Add("Pool.NTP.org", " pool.ntp.org ", ".", uint16(12), true)
	f.Add("a..b", strings.Repeat("a", 64)+".org", "b", uint16(0), true)
	f.Add(strings.Repeat("abcdefg.", 32), "abcdefg.abcdefg", "", uint16(40), false)
	f.Add("a.b.c", "b.c", "a.b.c", uint16(0x3FFE), true)
	f.Add("\xff.example", "İ.example", "i̇.example", uint16(12), true)
	f.Fuzz(func(t *testing.T, a, b, c string, pad uint16, compress bool) {
		checkAppendNames(t, int(pad)%0x4100, compress, a, b, c)
	})
}

// TestEncodePoolResponseAllocs pins what the single-pass encoder buys on
// the message dohpoold sends for a pool name (bench/probe's
// dnswire.encode_resp: a question, an OPT-less 12-answer section, every
// owner name compressed onto the question's): the output buffer, the
// compression map and nothing per record.
func TestEncodePoolResponseAllocs(t *testing.T) {
	query, err := NewQuery("pool.ntppool.test.", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponse(query)
	for i := 0; i < 12; i++ {
		addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i%8)})
		resp.Answers = append(resp.Answers, AddressRecord(query.Question().Name, addr, 150))
	}
	if _, err := resp.Encode(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := resp.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("encoding the 12-answer pool response costs %.0f allocations, want at most 6", allocs)
	}
}
