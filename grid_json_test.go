package bufferqoe

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"
)

// fuzzGrid builds a grid from fuzzed parts. shape picks, two bits per
// axis (scenarios, probes, buffers, cells), a nil, an empty or a
// populated slice. Populated cells are either two that rotate the
// floats and strings between their fields, so every value reaches
// every field, or one that takes them in order, so a value can sit in
// one field alone.
func fuzzGrid(shape uint8, s1, s2 string, buf int, x, y, z float64) *Grid {
	pick := func(axis uint) int { return int(shape>>(2*axis)) & 3 }
	g := &Grid{}
	switch pick(0) {
	case 1:
		g.Scenarios = []string{}
	case 2, 3:
		g.Scenarios = []string{s1, s2}
	}
	switch pick(1) {
	case 1:
		g.Probes = []string{}
	case 2, 3:
		g.Probes = []string{s2}
	}
	switch pick(2) {
	case 1:
		g.Buffers = []int{}
	case 2, 3:
		g.Buffers = []int{buf, -buf, 0}
	}
	switch pick(3) {
	case 1:
		g.Cells = []SweepCell{}
	case 2:
		g.Cells = []SweepCell{
			{Scenario: s1, Probe: s2, Buffer: buf, Metric: s1, Value: x, MOS: y, Rating: s2, TalkMOS: z, TalkRating: s1},
			{Scenario: s2, Probe: s1, Buffer: -buf, Metric: s2, Value: z, MOS: x, Rating: s1, TalkMOS: y, TalkRating: s2},
		}
	case 3:
		g.Cells = []SweepCell{{Scenario: s1, Probe: s2, Buffer: buf, Value: x, MOS: y, TalkMOS: z, TalkRating: s1}}
	}
	return g
}

// fuzzRecommendation builds a recommendation around a fuzzed grid's
// cells. rshape picks, two bits, a nil, an empty or a populated
// BuffersTried, and one bit more whether Met is set.
func fuzzRecommendation(g *Grid, rshape uint8, scheme string, buf int, score float64, delay int64) *Recommendation {
	r := &Recommendation{
		Buffer: buf, Score: score, Met: rshape&4 != 0, Cells: g.Cells,
		CellsEvaluated: buf, GridCells: -buf,
		Scheme: Scheme{Name: scheme, Packets: -buf, MaxDelay: time.Duration(delay)},
	}
	switch rshape & 3 {
	case 1:
		r.BuffersTried = []int{}
	case 2, 3:
		r.BuffersTried = []int{buf, 0, -buf}
	}
	return r
}

// FuzzGridJSON holds the one-pass writers to what they replace, byte
// for byte, with an error exactly when encoding/json returns one:
// Grid.JSON to json.MarshalIndent(g, "", "  "), Grid.AppendJSON to
// MarshalIndent at both depths a grid is written at (a document of its
// own, prefix "", and nested in a server reply, prefix "  "), and
// Recommendation.AppendJSON, nested, to MarshalIndent(r, "  ", "  ").
// Both writers append to what the buffer holds, append nothing on an
// error, and, when no label needs escaping, write no more than the
// room they reserve (jsonSize), so they grow the buffer at most once.
func FuzzGridJSON(f *testing.F) {
	// Every axis populated, with two rotated cells or one in order.
	const two, one = 0xbf, 0xff
	for _, c := range []struct {
		shape  uint8
		s1, s2 string
		buf    int
		x, y   float64
		z      float64
	}{
		{two, "long-many/up", "voip", 64, 4.12, 3.9, 0},
		{two, "noBG", "video:SD", 8, 0.9987654321, 4.4, 1},
		{two, "a", "", 256, math.NaN(), 1, 0},
		{two, "a", "b", 1, 1, math.Inf(1), 0},
		{two, "a", "b", 1, 1, 2, math.Inf(-1)},
		{one, "a", "b", 1, math.NaN(), 2, 3}, // one non-finite field each
		{one, "a", "b", 1, 1, math.Inf(1), 3},
		{one, "a", "b", 1, 1, 2, math.Inf(-1)},
		{one, "a", "b", 1, 1, 2, math.NaN()},
		{one, "a", "b", 1, 1, 2, 0},
		{two, "a", "b", 1, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		{two, "a", "b", 1, 1e21, 1e20, 999999999999999999999},
		{two, "a", "b", 1, 1e-7, 0.000001, 9.99999e-7},
		{two, "a", "b", 1, 5e-324, -1.5e-300, math.MaxFloat64},
		{two, "<script>&amp;", `say "hi" \ bye`, 1, 1, 2, 3},
		{two, "a<b", "a>b", 1, 1, 2, 3},
		{two, "a&b", `a\b`, 1, 1, 2, 3},
		{two, `a"b`, "a\x7fb", 1, 1, 2, 3},
		{two, "tab\there\nnl\x00\x1f\x7f", "\r", 1, 1, 2, 3},
		{two, "bad\xffutf8\xc3", "é–ü", 1, 1, 2, 3},
		{two, "line\u2028sep\u2029", "ok", 1, 1, 2, 3},
		{0x00, "a", "b", 1, 1, 2, 3},             // every axis nil
		{0x55, "a", "b", 1, 1, 2, 3},             // every axis empty
		{0x8a, "a", "b", math.MinInt64, 1, 2, 0}, // nil buffers, zero talk MOS
		{two, "", "b", 8, 1, 2, 3},               // empty talk rating
		{two, "a", "b", math.MaxInt64, 1, 2, 0},
	} {
		f.Add(c.shape, c.s1, c.s2, c.buf, c.x, c.y, c.z, uint8(6), 3.7, int64(25*time.Millisecond))
	}
	// The recommendation's own fields.
	for _, c := range []struct {
		rshape uint8
		scheme string
		score  float64
		delay  int64
	}{
		{6, "rule-of-thumb (BDP)", math.NaN(), 1}, // a non-finite score with finite cells
		{6, "tiny", math.Inf(1), 1},
		{6, "tiny", math.Inf(-1), 1},
		{0, "tiny", 4.2, 1}, // nil BuffersTried, Met false
		{1, "tiny", 4.2, 1}, // empty BuffersTried
		{6, "stanford (BDP/sqrt(n)) <é> & ü", 4.2, 1},
		{6, "bloated\u2028\xff", 1e-7, 1},
		{6, "tiny", 4.2, -int64(time.Second)},
		{6, "tiny", math.Copysign(0, -1), math.MinInt64},
	} {
		f.Add(uint8(0xbf), "long-many/up", c.scheme, 64, 4.12, 3.9, 1.5, c.rshape, c.score, c.delay)
	}
	f.Fuzz(func(t *testing.T, shape uint8, s1, s2 string, buf int, x, y, z float64, rshape uint8, score float64, delay int64) {
		g := fuzzGrid(shape, s1, s2, buf, x, y, z)
		want, wantErr := json.MarshalIndent(g, "", "  ")
		got, err := g.JSON()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("JSON error %v, MarshalIndent error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("JSON differs from MarshalIndent\n got: %s\nwant: %s", got, want)
		}
		const held = "held,"
		plain := true // no label needs escaping
		for _, l := range []string{s1, s2} {
			q, _ := json.Marshal(l)
			plain = plain && len(q) == len(l)+2
		}
		check := func(what string, v any, prefix string, appendJSON func([]byte, string) ([]byte, error), size func(string) int) {
			t.Helper()
			want, wantErr := json.MarshalIndent(v, prefix, "  ")
			if wantErr == nil && plain && len(want) > size(prefix) {
				t.Fatalf("%s prefix %q writes %d bytes, more than the %d it reserves", what, prefix, len(want), size(prefix))
			}
			got, err := appendJSON([]byte(held), prefix)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s prefix %q: error %v, MarshalIndent error %v", what, prefix, err, wantErr)
			}
			if err != nil {
				want = nil
			}
			if !bytes.Equal(got, append([]byte(held), want...)) {
				t.Fatalf("%s prefix %q differs from MarshalIndent\n got: %s\nwant: %s%s", what, prefix, got, held, want)
			}
		}
		check("Grid.AppendJSON", g, "", g.AppendJSON, g.jsonSize)
		check("Grid.AppendJSON", g, "  ", g.AppendJSON, g.jsonSize)
		r := fuzzRecommendation(g, rshape, s2, buf, score, delay)
		check("Recommendation.AppendJSON", r, "  ", r.AppendJSON, r.jsonSize)
	})
}

// FuzzKeptGridJSON holds a grid written through its plan's kept JSON to
// json.MarshalIndent, byte for byte, with an error exactly when
// encoding/json returns one: a plan keeps a fuzzed grid's cells, and
// that grid and a copy with fuzzed edits are written at the prefixes
// "", "  " and "" again, each change of prefix replacing the kept JSON.
// Each edit byte picks a cell and what to change in it; the changes
// include a float's sign, so a kept 0 meets a -0 that == takes for it.
func FuzzKeptGridJSON(f *testing.F) {
	const two, one = 0xbf, 0xff
	for _, c := range []struct {
		shape   uint8
		s1, s2  string
		x, y, z float64
		edits   string
	}{
		{two, "noBG", "voip", 4.12, 3.9, 0, ""},
		{two, "noBG", "voip", 0, 3.9, 0, "\x00\x01\x02\x10\x11\x12"}, // -0 for a kept 0 in each float
		{one, "a", "b", 0, 0, 0, "\x01\x02"},
		{two, "a", "b", 1, 2, 3, "\x03\x04\x05\x06\x07"},
		{two, "a<b", `say "hi"`, 1e21, 1e-7, 5e-324, "\x0b\x0c"},
		{two, "a", "b", 1, 2, math.NaN(), "\x07"}, // an edit JSON cannot write
		{two, "a", "b", 1, 2, 3, "\x18\x09\x17"},  // cells cut, then grown
		{0x3f, "a", "b", 1, 2, 3, "\x08\x09"},     // no cells
	} {
		f.Add(c.shape, c.s1, c.s2, 8, c.x, c.y, c.z, []byte(c.edits))
	}
	f.Fuzz(func(t *testing.T, shape uint8, s1, s2 string, buf int, x, y, z float64, edits []byte) {
		g := fuzzGrid(shape, s1, s2, buf, x, y, z)
		p := &sweepPlan{}
		p.kept.Store(&keptCells{cells: slices.Clone(g.Cells)})
		g.plan = p
		e := &Grid{Scenarios: g.Scenarios, Probes: g.Probes, Buffers: g.Buffers, Cells: slices.Clone(g.Cells), plan: p}
		for _, op := range edits {
			editCell(e, op, s1, s2, z)
		}
		for _, prefix := range []string{"", "  ", ""} {
			for _, grid := range []*Grid{g, e} {
				want, wantErr := json.MarshalIndent(grid, prefix, "  ")
				got, err := grid.AppendJSON(nil, prefix)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("prefix %q: error %v, MarshalIndent error %v", prefix, err, wantErr)
				}
				if err == nil && !bytes.Equal(got, want) {
					t.Fatalf("prefix %q differs from MarshalIndent\n got: %s\nwant: %s", prefix, got, want)
				}
			}
		}
	})
}

// editCell applies one fuzzed edit to a grid's cells: the low three
// bits of op pick a field of the cell the high bits pick (or, with bit
// 3, cut the cells there or grow them by a copy of the first).
func editCell(g *Grid, op byte, s1, s2 string, f float64) {
	if len(g.Cells) == 0 && op&8 == 0 {
		return
	}
	i := int(op>>4) % max(len(g.Cells), 1)
	if op&8 != 0 {
		if op&1 == 0 {
			g.Cells = g.Cells[:i]
		} else if len(g.Cells) > 0 {
			g.Cells = append(g.Cells, g.Cells[0])
		}
		return
	}
	c := &g.Cells[i]
	switch op & 7 {
	case 0:
		c.Value = -c.Value
	case 1:
		c.MOS = -c.MOS
	case 2:
		c.TalkMOS = -c.TalkMOS
	case 3:
		c.Rating = s1
	case 4:
		c.TalkRating = s2
	case 5:
		c.Buffer++
	case 6:
		c.Scenario, c.Probe = c.Probe, c.Scenario
	case 7:
		c.Value = f
	}
}
