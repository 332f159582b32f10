package profio

import (
	"strconv"

	"aprof/internal/core"
	"aprof/internal/trace"
)

// Documents in exactly the layout encode writes are decoded in one pass
// over their bytes: the fixed text between values is matched literally and
// each value is parsed in place. A value is taken only in the form the
// encoder gives it — re-encoding it must reproduce its token — so every
// accepted document decodes to what encoding/json would decode it to.
// Anything else (other whitespace or member order, escaped names, unknown
// or duplicate members, trailing bytes, a duplicate profile or point) makes
// readCanonical give up, and Read hands the input to readJSON, which
// decodes or rejects it exactly as it always has.

// readCanonical decodes data if it is a document as Marshal writes it, and
// returns nil otherwise.
func readCanonical(data []byte) *core.Profiles {
	c := cursor{b: data, ok: true}
	ps := &core.Profiles{Symbols: trace.NewSymbolTable(), ByKey: make(map[core.Key]*core.Profile)}
	c.lit("{" + indent1 + `"format": 1,` + indent1 + `"generator": "aprof-drms",` + indent1 + `"events": `)
	ps.Events = int(c.int(strconv.IntSize))
	c.lit("," + indent1 + `"renumberings": `)
	ps.Renumberings = int(c.int(strconv.IntSize))
	if c.has("," + indent1 + `"drops": {`) {
		d := &ps.Drops
		sep := indent2
		for _, f := range [...]struct {
			name string
			v    *uint64
		}{
			{"returnWithoutCall", &d.ReturnWithoutCall},
			{"unknownRoutine", &d.UnknownRoutine},
			{"badThread", &d.BadThread},
			{"afterFinish", &d.AfterFinish},
			{"invalidKind", &d.InvalidKind},
			{"depthOverflow", &d.DepthOverflow},
			{"sampledOut", &d.SampledOut},
		} {
			if c.member(sep, f.name) {
				*f.v = c.uint()
				sep = "," + indent2
			}
		}
		c.lit(indent1 + "}")
	}
	if c.has("," + indent1 + `"corruption": {`) {
		cs := &ps.Corruption
		sep := indent2
		if c.member(sep, "frames_dropped") {
			cs.FramesDropped = int(c.int(strconv.IntSize))
			sep = "," + indent2
		}
		if c.member(sep, "events_dropped") {
			cs.EventsDropped = int(c.int(strconv.IntSize))
			sep = "," + indent2
		}
		if c.member(sep, "bytes_skipped") {
			cs.BytesSkipped = c.int(64)
			sep = "," + indent2
		}
		if c.member(sep, "truncated") {
			c.lit("true")
			cs.Truncated = true
		}
		c.lit(indent1 + "}")
	}
	c.lit("," + indent1 + `"profiles": `)
	if !c.has("null") {
		c.lit("[")
		for c.ok {
			c.lit(indent2 + "{" + indent3 + `"routine": `)
			name := c.str()
			c.lit("," + indent3 + `"thread": `)
			thread := trace.ThreadID(c.int(32))
			p := &core.Profile{Routine: ps.Symbols.Intern(name), Thread: thread}
			for _, f := range [...]struct {
				name string
				v    *uint64
			}{
				{"calls", &p.Calls},
				{"sum_rms", &p.SumRMS},
				{"sum_drms", &p.SumDRMS},
				{"first_reads", &p.FirstReads},
				{"induced_thread", &p.InducedThread},
				{"induced_external", &p.InducedExternal},
				{"total_cost", &p.TotalCost},
			} {
				if !c.member(","+indent3, f.name) {
					c.ok = false
				}
				*f.v = c.uint()
			}
			c.lit("," + indent3 + `"drms_points": `)
			p.DRMSPoints = c.points()
			c.lit("," + indent3 + `"rms_points": `)
			p.RMSPoints = c.points()
			c.lit(indent2 + "}")
			key := core.Key{Routine: p.Routine, Thread: thread}
			if _, dup := ps.ByKey[key]; dup {
				return nil // readJSON reports it
			}
			ps.ByKey[key] = p
			if !c.has(",") {
				break
			}
		}
		c.lit(indent1 + "]")
	}
	c.lit("\n}\n")
	if !c.ok || len(c.b) != 0 {
		return nil
	}
	return ps
}

// cursor walks a document for readCanonical. The first mismatch clears ok;
// from then on every method returns a zero value without moving.
type cursor struct {
	b   []byte
	ok  bool
	pts []pointJSON // scratch for the plot being read
}

// lit consumes s, which must come next.
func (c *cursor) lit(s string) {
	if !c.has(s) {
		c.ok = false
	}
}

// has consumes s if it comes next and reports whether it did.
func (c *cursor) has(s string) bool {
	if !c.ok || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		return false
	}
	c.b = c.b[len(s):]
	return true
}

// member consumes sep and a member name with its ": " separator, as
// appendMember writes them, if they come next, and reports whether it did.
func (c *cursor) member(sep, name string) bool {
	n := len(sep) + 1 + len(name)
	if !c.ok || len(c.b) < n+3 || string(c.b[:len(sep)]) != sep || c.b[len(sep)] != '"' ||
		string(c.b[len(sep)+1:n]) != name || string(c.b[n:n+3]) != `": ` {
		return false
	}
	c.b = c.b[n+3:]
	return true
}

// uint consumes an unsigned integer as strconv.AppendUint writes it:
// digits without a leading zero, within uint64.
func (c *cursor) uint() uint64 {
	if !c.ok {
		return 0
	}
	var v uint64
	i := 0
	for ; i < len(c.b) && '0' <= c.b[i] && c.b[i] <= '9'; i++ {
		d := uint64(c.b[i] - '0')
		if v > (1<<64-1-d)/10 {
			c.ok = false
			return 0
		}
		v = v*10 + d
	}
	if i == 0 || (i > 1 && c.b[0] == '0') {
		c.ok = false
		return 0
	}
	c.b = c.b[i:]
	return v
}

// int consumes a signed integer of the given bit size as strconv.AppendInt
// writes it.
func (c *cursor) int(bits int) int64 {
	neg := c.has("-")
	v := c.uint()
	limit := uint64(1) << (bits - 1)
	if neg && (v == 0 || v > limit) || !neg && v >= limit {
		c.ok = false
		return 0
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// float consumes a number that appendFloat writes exactly as it stands.
func (c *cursor) float() float64 {
	if !c.ok {
		return 0
	}
	i := 0
	for ; i < len(c.b); i++ {
		if ch := c.b[i]; !('0' <= ch && ch <= '9' || ch == '-' || ch == '+' || ch == '.' || ch == 'e' || ch == 'E') {
			break
		}
	}
	tok := c.b[:i]
	f, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	if err == nil {
		var out []byte
		if out, err = appendFloat(buf[:0], f); err == nil && string(out) == string(tok) {
			c.b = c.b[i:]
			return f
		}
	}
	c.ok = false
	return 0
}

// str consumes a string that appendString copies as is: printable ASCII,
// and 0x7f, without the quote, the backslash and <, > and &.
func (c *cursor) str() string {
	if !c.has(`"`) {
		c.ok = false
		return ""
	}
	for i, ch := range c.b {
		if ch == '"' {
			s := string(c.b[:i])
			c.b = c.b[i+1:]
			return s
		}
		if ch < 0x20 || ch >= 0x80 || ch == '\\' || ch == '<' || ch == '>' || ch == '&' {
			break
		}
	}
	c.ok = false
	return ""
}

// points consumes a cost plot as appendPoints writes it.
func (c *cursor) points() map[uint64]*core.CostStats {
	if c.has("[]") {
		return map[uint64]*core.CostStats{}
	}
	c.lit("[")
	pts := c.pts[:0]
	for c.ok {
		var p pointJSON
		c.lit(indent4 + "{" + indent5 + `"n": `)
		p.N = c.uint()
		c.lit("," + indent5 + `"count": `)
		p.Count = c.uint()
		c.lit("," + indent5 + `"max": `)
		p.Max = c.uint()
		c.lit("," + indent5 + `"min": `)
		p.Min = c.uint()
		c.lit("," + indent5 + `"sum": `)
		p.Sum = c.uint()
		c.lit("," + indent5 + `"sumsq": `)
		p.SumSq = c.float()
		c.lit(indent4 + "}")
		pts = append(pts, p)
		if !c.has(",") {
			break
		}
	}
	c.lit(indent3 + "]")
	c.pts = pts
	if !c.ok {
		return nil
	}
	points, err := pointsFromJSON(pts)
	if err != nil {
		c.ok = false // a duplicate n: readJSON reports it
	}
	return points
}
