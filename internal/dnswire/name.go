package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Name-handling errors. They are exported within the package boundary via
// errors.Is on the wrapped forms returned from Decode/Encode.
var (
	ErrNameTooLong    = errors.New("domain name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("empty label inside name")
	ErrBadPointer     = errors.New("bad compression pointer")
	ErrPointerLoop    = errors.New("compression pointer loop")
	ErrTruncatedName  = errors.New("truncated domain name")
	ErrBadLabelLength = errors.New("reserved label length bits")
	ErrBadLabelByte   = errors.New("label contains unsupported byte")
)

// CanonicalName lower-cases a presentation-format domain name and ensures
// it carries a trailing dot. The empty string canonicalises to "." (the
// root).
func CanonicalName(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" || s == "." {
		return "."
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return s
}

// SplitLabels splits a canonical name into its labels, excluding the root.
// "example.org." yields ["example", "org"]; "." yields nil.
func SplitLabels(name string) []string {
	name = CanonicalName(name)
	if name == "." {
		return nil
	}
	return strings.Split(strings.TrimSuffix(name, "."), ".")
}

// IsSubdomain reports whether child equals parent or lies beneath it.
// Both arguments are canonicalised first.
func IsSubdomain(child, parent string) bool {
	child, parent = CanonicalName(child), CanonicalName(parent)
	if parent == "." {
		return true
	}
	if child == parent {
		return true
	}
	return strings.HasSuffix(child, "."+parent)
}

// ValidateName checks presentation-format name length constraints.
func ValidateName(name string) error {
	return validateLabels(canonicalNoDot(name))
}

// canonicalNoDot is CanonicalName without the trailing dot ("" for the
// root): the form whose substrings after each dot are the name's
// suffixes, so the encoder can walk and key them without splitting. An
// already lower-case name is returned as a substring of itself.
func canonicalNoDot(name string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(name)), ".")
}

// validateLabels checks a canonicalNoDot name label by label, in place:
// the first empty or over-long label is reported first, the total length
// only once every label has passed.
func validateLabels(name string) error {
	if name == "" {
		return nil // root
	}
	for rest, more := name, true; more; {
		var label string
		label, rest, more = strings.Cut(rest, ".")
		if len(label) == 0 {
			return fmt.Errorf("%q: %w", name+".", ErrEmptyLabel)
		}
		if len(label) > MaxLabelLength {
			return fmt.Errorf("%q: %w", name+".", ErrLabelTooLong)
		}
	}
	// Wire form length: one length octet per label plus label bytes plus
	// the terminating zero octet — the dots become the length octets of
	// every label but the first.
	if len(name)+2 > MaxNameLength {
		return fmt.Errorf("%q: %w", name+".", ErrNameTooLong)
	}
	return nil
}

// compressionMap records, for every name suffix already emitted, its offset
// in the message so later occurrences can be replaced with a pointer
// (RFC 1035 §4.1.4). Pointers must fit in 14 bits. Keys are canonicalNoDot
// suffixes: substrings of the names encoded, never copies.
type compressionMap map[string]int

// appendName appends the wire form of name to buf, using and updating cmap
// for compression. Passing a nil cmap disables compression (required for
// names inside RDATA of types where compression is forbidden). The name is
// canonicalised once and validated before anything is written, so an
// invalid name leaves buf and cmap as they were.
func appendName(buf []byte, name string, cmap compressionMap) ([]byte, error) {
	name = canonicalNoDot(name)
	if err := validateLabels(name); err != nil {
		return buf, err
	}
	for rest, more := name, name != ""; more; {
		if cmap != nil {
			if off, ok := cmap[rest]; ok {
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if off := len(buf); off < 0x3FFF {
				cmap[rest] = off
			}
		}
		var label string
		label, rest, more = strings.Cut(rest, ".")
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// decodeName reads a possibly compressed name starting at off. It returns
// the canonical presentation form and the offset of the first byte after
// the name (after the first pointer if the name is compressed).
func decodeName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	ptrBudget := 64 // generous loop guard: names have at most 127 labels
	pos := off
	end := -1 // offset after the name in the original stream
	octets := 0
	for {
		if pos >= len(msg) {
			return "", 0, fmt.Errorf("offset %d: %w", pos, ErrTruncatedName)
		}
		c := int(msg[pos])
		switch {
		case c == 0:
			if end < 0 {
				end = pos + 1
			}
			if sb.Len() == 0 {
				return ".", end, nil
			}
			return sb.String(), end, nil
		case c&0xC0 == 0xC0:
			if pos+1 >= len(msg) {
				return "", 0, fmt.Errorf("offset %d: %w", pos, ErrTruncatedName)
			}
			target := (c&0x3F)<<8 | int(msg[pos+1])
			if end < 0 {
				end = pos + 2
			}
			if target >= pos {
				// Forward (or self) pointers are invalid and would loop.
				return "", 0, fmt.Errorf("offset %d -> %d: %w", pos, target, ErrBadPointer)
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return "", 0, ErrPointerLoop
			}
			pos = target
		case c&0xC0 != 0:
			return "", 0, fmt.Errorf("offset %d: %w", pos, ErrBadLabelLength)
		default:
			if pos+1+c > len(msg) {
				return "", 0, fmt.Errorf("offset %d: %w", pos, ErrTruncatedName)
			}
			octets += 1 + c
			if octets+1 > MaxNameLength {
				return "", 0, ErrNameTooLong
			}
			label := msg[pos+1 : pos+1+c]
			for _, b := range label {
				// Lower-case on the fly to keep names canonical.
				if b >= 'A' && b <= 'Z' {
					b += 'a' - 'A'
				}
				// This implementation keeps names in presentation form
				// internally, so a '.' inside a label would be ambiguous
				// and control bytes could smuggle data into logs. Such
				// labels never occur in hostname lookups (the only kind
				// the pool-generation system performs); reject them
				// instead of escaping (RFC 4343 would escape).
				if b == '.' || b < 0x21 || b > 0x7E {
					return "", 0, fmt.Errorf("byte %#x at offset %d: %w", b, pos, ErrBadLabelByte)
				}
				sb.WriteByte(b)
			}
			sb.WriteByte('.')
			pos += 1 + c
		}
	}
}
