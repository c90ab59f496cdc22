package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sprintfKey is the fmt rendering Key replaced, kept as its reference:
// the store names each cell file after the key's hash, so Key must
// return exactly this string for every spec.
func sprintfKey(s CellSpec) string {
	c := s.Canonical()
	k := fmt.Sprintf("tb=%s|sc=%s|dir=%s|buf=%d|bufup=%d|media=%s|var=%s|link=%s|seed=%d|dur=%d|warm=%d|reps=%d|clip=%d|cdn=%d",
		c.Testbed, c.Scenario, c.Direction, c.Buffer, c.BufferUp,
		c.Media, c.Variant, c.Link, c.Seed,
		int64(c.Duration), int64(c.Warmup), c.Reps, c.ClipSeconds, c.CDNFlows)
	if c.Stop != "" {
		k += "|stop=" + c.Stop
	}
	return k
}

// pinnedKeys are the keys TestCellKeysPinned (internal/experiments)
// pins, one per foreground and tag-bearing axis; parsed back into
// specs they seed FuzzCellSpecKey's corpus with real cells.
var pinnedKeys = []string{
	"tb=access|sc=long-many|dir=up|buf=256|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=backbone|sc=short-medium|dir=|buf=749|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=short-few|dir=bidir|buf=64|bufup=0|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=backbone|sc=long|dir=|buf=749|bufup=0|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-few|dir=up|buf=64|bufup=0|media=web|var=par=4|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=short-many|dir=down|buf=32|bufup=0|media=video|var=clip=C-movie;profile=HD|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25",
	"tb=backbone|sc=short-high|dir=|buf=749|bufup=0|media=video|var=clip=A-interview;profile=SD|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25",
	"tb=backbone|sc=short-medium|dir=|buf=28|bufup=0|media=video|var=clip=C-movie;profile=SD;rec=arq|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-many|dir=bidir|buf=64|bufup=8|media=background|var=|link=|seed=7|dur=9000000000|warm=3000000000|reps=0|clip=0|cdn=0",
	"tb=backbone|sc=short-overload|dir=|buf=749|bufup=0|media=background|var=|link=|seed=7|dur=9000000000|warm=3000000000|reps=0|clip=0|cdn=0",
	"tb=access|sc=short-many|dir=down|buf=256|bufup=0|media=voip|var=playout=adaptive|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0",
	"tb=access|sc=noBG|dir=|buf=8|bufup=0|media=video|var=single;mode=burst;profile=SD|link=|seed=7|dur=0|warm=0|reps=0|clip=6|cdn=0",
	"tb=backbone|sc=short-high|dir=|buf=749|bufup=0|media=httpvideo|var=player=abr-buffer|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0",
	"tb=|sc=|dir=|buf=0|bufup=0|media=wild|var=|link=|seed=7|dur=0|warm=0|reps=0|clip=0|cdn=1234",
	"tb=access|sc=noBG|dir=|buf=64|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=short-few|dir=down|buf=640|bufup=8|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-many|dir=up|buf=256|bufup=0|media=web|var=iw=10;par=6|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-few|dir=up|buf=256|bufup=0|media=voip|var=aqm=fq-codel|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=backbone|sc=long|dir=|buf=749|bufup=0|media=video|var=clip=C-movie;profile=SD;aqm=pie;cc=cubic|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-few|dir=down|buf=64|bufup=0|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-few|dir=bidir|buf=64|bufup=0|media=voip|var=cc=bbr|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=short-few|dir=down|buf=64|bufup=0|media=voip|var=jitter=10ms|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=short-few|dir=down|buf=64|bufup=16|media=video|var=clip=C-movie;profile=HD;aqm=red;cc=reno;jitter=2ms|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-few|dir=up|buf=185|bufup=0|media=web|var=|link=up=1e+09;down=1e+09;cd=2ms;sd=10ms|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-few|dir=down|buf=64|bufup=0|media=voip|var=cc=bbr|link=up=6.5e+07;down=6.5e+07;cd=2ms;sd=15ms;wifi=4;retry=7;agg=16;ro=0.01|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=up:long=2;down:web=48/1.5s|dir=|buf=64|bufup=0|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=backbone|sc=down:web=144/1.5s|dir=|buf=749|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
	"tb=access|sc=long-few|dir=up|buf=64|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25",
}

// parseKey reads a key rendered from a spec whose strings hold no '|'
// back into that spec.
func parseKey(t testing.TB, key string) CellSpec {
	t.Helper()
	var s CellSpec
	num := func(v string) int64 {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		return n
	}
	for _, field := range strings.Split(key, "|") {
		name, v, _ := strings.Cut(field, "=")
		switch name {
		case "tb":
			s.Testbed = v
		case "sc":
			s.Scenario = v
		case "dir":
			s.Direction = v
		case "buf":
			s.Buffer = int(num(v))
		case "bufup":
			s.BufferUp = int(num(v))
		case "media":
			s.Media = v
		case "var":
			s.Variant = v
		case "link":
			s.Link = v
		case "seed":
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("key %q: %v", key, err)
			}
			s.Seed = seed
		case "dur":
			s.Duration = time.Duration(num(v))
		case "warm":
			s.Warmup = time.Duration(num(v))
		case "reps":
			s.Reps = int(num(v))
		case "clip":
			s.ClipSeconds = int(num(v))
		case "cdn":
			s.CDNFlows = int(num(v))
		case "stop":
			s.Stop = v
		default:
			t.Fatalf("key %q: unknown field %q", key, name)
		}
	}
	return s
}

// FuzzCellSpecKey holds Key to its fmt reference for arbitrary specs:
// any byte it renders differently would move a cell's store address.
func FuzzCellSpecKey(f *testing.F) {
	add := func(s CellSpec) {
		f.Add(s.Testbed, s.Scenario, s.Direction, s.Buffer, s.BufferUp, s.Media, s.Variant, s.Link, s.Stop,
			s.Seed, int64(s.Duration), int64(s.Warmup), s.Reps, s.ClipSeconds, s.CDNFlows)
	}
	for _, k := range pinnedKeys {
		s := parseKey(f, k)
		if got := sprintfKey(s); got != k {
			f.Fatalf("pinned key does not round-trip through parseKey:\n got:  %s\n want: %s", got, k)
		}
		add(s)
	}
	add(CellSpec{
		Testbed: "access", Scenario: "a|b=c", Direction: "up", Buffer: -1, BufferUp: math.MinInt64,
		Media: "vöïp", Variant: "x=|y", Link: "\xff\x00", Stop: "ci2:0.5|stop=",
		Seed: math.MaxUint64, Duration: -time.Second, Warmup: math.MinInt64,
		Reps: math.MaxInt64, ClipSeconds: -7, CDNFlows: math.MinInt64,
	})
	add(CellSpec{Testbed: "backbone", Direction: "down", Buffer: 7, BufferUp: 7, Stop: "ci3:0.25"})
	add(CellSpec{})
	f.Fuzz(func(t *testing.T, tb, sc, dir string, buf, bufUp int, media, variant, link, stop string,
		seed uint64, dur, warm int64, reps, clip, cdn int) {
		s := CellSpec{
			Testbed: tb, Scenario: sc, Direction: dir, Buffer: buf, BufferUp: bufUp,
			Media: media, Variant: variant, Link: link, Stop: stop, Seed: seed,
			Duration: time.Duration(dur), Warmup: time.Duration(warm),
			Reps: reps, ClipSeconds: clip, CDNFlows: cdn,
		}
		if got, want := s.Key(), sprintfKey(s); got != want {
			t.Fatalf("Key differs from the fmt rendering\n got:  %q\n want: %q", got, want)
		}
	})
}
