package profio

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"aprof/internal/core"
)

// The profile document is written in one append pass. Its bytes are exactly
// what encoding/json produces for fileJSON through an Encoder with
// SetIndent("", "  ") — member order, two-space indentation, the omitempty
// rules of the drops and corruption objects, ES6 float formatting and
// HTML-safe string escaping — so documents written before this encoder are
// byte-identical to documents written by it. TestWriteMatchesReference and
// FuzzReadProfiles hold it to the reflective encoder kept in
// reference_test.go.

// Indentation of each nesting level: document members, profile objects,
// profile members, point objects, point members.
const (
	indent1 = "\n  "
	indent2 = "\n    "
	indent3 = "\n      "
	indent4 = "\n        "
	indent5 = "\n          "
)

// encoder is the scratch state of one Marshal or Write call, pooled so that
// a document's working buffer and sort slices are reused across calls.
// Marshal hands out only an exact-length copy of buf.
type encoder struct {
	buf    []byte
	keys   []namedKey
	points []point
}

type namedKey struct {
	name string
	key  core.Key
	p    *core.Profile
}

type point struct {
	n  uint64
	st *core.CostStats
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// release drops the references into the encoded profiles, so a pooled
// encoder keeps no finished session alive, and returns e to the pool.
func (e *encoder) release() {
	clear(e.keys[:cap(e.keys)])
	clear(e.points[:cap(e.points)])
	encoders.Put(e)
}

// Marshal returns the JSON document of ps: the bytes Write writes, in a
// slice of exactly the document's length.
func Marshal(ps *core.Profiles) ([]byte, error) {
	e := encoders.Get().(*encoder)
	defer e.release()
	if err := e.encode(ps); err != nil {
		return nil, err
	}
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out, nil
}

// Write serializes ps to w as JSON.
func Write(w io.Writer, ps *core.Profiles) error {
	e := encoders.Get().(*encoder)
	defer e.release()
	if err := e.encode(ps); err != nil {
		return err
	}
	_, err := w.Write(e.buf)
	return err
}

// Bytes a document takes beyond its points and routine names, per profile
// and per point: the fixed text plus typical digits, measured on the suite
// profiles and rounded up (the estimate runs 7-13 % over).
const (
	sizeDoc     = 256
	sizeProfile = 320
	sizePoint   = 165
)

func (e *encoder) encode(ps *core.Profiles) error {
	// Canonical order: by routine name, then thread. Sorting by name rather
	// than interned id makes the serialized form independent of interning
	// order, so profiles that are semantically equal — e.g. runs that
	// interned the same routines in different orders — encode to identical
	// bytes.
	keys := slices.Grow(e.keys[:0], len(ps.ByKey))
	size := sizeDoc
	for k, p := range ps.ByKey {
		name := ps.Symbols.Name(k.Routine)
		keys = append(keys, namedKey{name, k, p})
		size += sizeProfile + len(name) + sizePoint*(len(p.DRMSPoints)+len(p.RMSPoints))
	}
	slices.SortFunc(keys, func(x, y namedKey) int {
		if c := cmp.Compare(x.name, y.name); c != 0 {
			return c
		}
		return cmp.Compare(x.key.Thread, y.key.Thread)
	})
	e.keys = keys

	// Size the buffer for the whole document up front, so an encoder the
	// pool has just created allocates once instead of doubling its way up.
	b := slices.Grow(e.buf[:0], size)
	b = append(b, "{"+indent1+`"format": `...)
	b = strconv.AppendInt(b, fileFormat, 10)
	b = append(b, ","+indent1+`"generator": "aprof-drms",`+indent1+`"events": `...)
	b = strconv.AppendInt(b, int64(ps.Events), 10)
	b = append(b, ","+indent1+`"renumberings": `...)
	b = strconv.AppendInt(b, int64(ps.Renumberings), 10)
	if d := &ps.Drops; !d.IsZero() {
		b = append(b, ","+indent1+`"drops": {`...)
		sep := indent2
		for _, f := range [...]struct {
			name string
			v    uint64
		}{
			{"returnWithoutCall", d.ReturnWithoutCall},
			{"unknownRoutine", d.UnknownRoutine},
			{"badThread", d.BadThread},
			{"afterFinish", d.AfterFinish},
			{"invalidKind", d.InvalidKind},
			{"depthOverflow", d.DepthOverflow},
			{"sampledOut", d.SampledOut},
		} {
			if f.v != 0 {
				b = appendMember(b, sep, f.name)
				b = strconv.AppendUint(b, f.v, 10)
				sep = "," + indent2
			}
		}
		b = append(b, indent1+"}"...)
	}
	if c := &ps.Corruption; c.FramesDropped != 0 || c.EventsDropped != 0 || c.BytesSkipped != 0 || c.Truncated {
		b = append(b, ","+indent1+`"corruption": {`...)
		sep := indent2
		for _, f := range [...]struct {
			name string
			v    int64
		}{
			{"frames_dropped", int64(c.FramesDropped)},
			{"events_dropped", int64(c.EventsDropped)},
			{"bytes_skipped", c.BytesSkipped},
		} {
			if f.v != 0 {
				b = appendMember(b, sep, f.name)
				b = strconv.AppendInt(b, f.v, 10)
				sep = "," + indent2
			}
		}
		if c.Truncated {
			b = appendMember(b, sep, "truncated")
			b = append(b, "true"...)
		}
		b = append(b, indent1+"}"...)
	}
	b = append(b, ","+indent1+`"profiles": `...)
	if len(keys) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			p := k.p
			b = append(b, indent2+"{"+indent3+`"routine": `...)
			b = appendString(b, k.name)
			b = append(b, ","+indent3+`"thread": `...)
			b = strconv.AppendInt(b, int64(int32(k.key.Thread)), 10)
			for _, f := range [...]struct {
				name string
				v    uint64
			}{
				{"calls", p.Calls},
				{"sum_rms", p.SumRMS},
				{"sum_drms", p.SumDRMS},
				{"first_reads", p.FirstReads},
				{"induced_thread", p.InducedThread},
				{"induced_external", p.InducedExternal},
				{"total_cost", p.TotalCost},
			} {
				b = appendMember(b, ","+indent3, f.name)
				b = strconv.AppendUint(b, f.v, 10)
			}
			var err error
			b = append(b, ","+indent3+`"drms_points": `...)
			if b, err = e.appendPoints(b, p.DRMSPoints); err != nil {
				return err
			}
			b = append(b, ","+indent3+`"rms_points": `...)
			if b, err = e.appendPoints(b, p.RMSPoints); err != nil {
				return err
			}
			b = append(b, indent2+"}"...)
		}
		b = append(b, indent1+"]"...)
	}
	e.buf = append(b, "\n}\n"...)
	return nil
}

// appendMember appends sep and a member name with its ": " separator.
// Member names are constants that need no escaping.
func appendMember(b []byte, sep, name string) []byte {
	b = append(b, sep...)
	b = append(b, '"')
	b = append(b, name...)
	return append(b, `": `...)
}

// appendPoints appends a cost plot as a JSON array of points in ascending
// n, "[]" when it is empty.
func (e *encoder) appendPoints(b []byte, points map[uint64]*core.CostStats) ([]byte, error) {
	if len(points) == 0 {
		return append(b, "[]"...), nil
	}
	ps := slices.Grow(e.points[:0], len(points))
	for n, st := range points {
		ps = append(ps, point{n, st})
	}
	slices.SortFunc(ps, func(x, y point) int { return cmp.Compare(x.n, y.n) })
	e.points = ps
	b = append(b, '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, indent4+"{"+indent5+`"n": `...)
		b = strconv.AppendUint(b, p.n, 10)
		b = append(b, ","+indent5+`"count": `...)
		b = strconv.AppendUint(b, p.st.Count, 10)
		b = append(b, ","+indent5+`"max": `...)
		b = strconv.AppendUint(b, p.st.Max, 10)
		b = append(b, ","+indent5+`"min": `...)
		b = strconv.AppendUint(b, p.st.Min, 10)
		b = append(b, ","+indent5+`"sum": `...)
		b = strconv.AppendUint(b, p.st.Sum, 10)
		b = append(b, ","+indent5+`"sumsq": `...)
		var err error
		if b, err = appendFloat(b, p.st.SumSq); err != nil {
			return b, err
		}
		b = append(b, indent4+"}"...)
	}
	return append(b, indent3+"]"...), nil
}

// appendFloat formats f as encoding/json formats a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 in magnitude,
// with a single-digit negative exponent unpadded ("1e-7", not "1e-07").
// NaN and infinities have no JSON form and are an error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("profio: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the HTML-sensitive <, > and & is copied as is;
// any other string goes through encoding/json, so control characters,
// non-ASCII text, invalid UTF-8 and U+2028/U+2029 are escaped exactly as
// before.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
