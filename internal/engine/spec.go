// Package engine is the parallel cell-execution subsystem of the
// reproduction. Every experiment in the paper's evaluation is a grid
// of independent simulation cells (testbed x scenario x direction x
// buffer x media); the engine gives each cell
//
//   - a canonical description (CellSpec) that names everything the
//     cell's outcome depends on,
//   - a seed derived deterministically from that description, so the
//     result is a pure function of the spec and independent of
//     scheduling order,
//   - a worker-pool slot, so a grid fans out across cores, and
//   - a memoized result, so cells shared between experiments (the
//     noBG rows of fig7a/b/c, the fig1 CDN population, the SD/ClipC
//     backbone cells of fig9b, ext-clips and ext-psnr) are computed
//     exactly once per process.
package engine

import (
	"fmt"
	"strconv"
	"time"
)

// CellSpec canonically describes one simulation cell. Two cells with
// equal canonical specs are the same cell: they derive the same seed,
// compute the same value, and share one cache entry. Builders must
// therefore put every result-shaping knob either in a named field or
// in the Variant tag, and must leave fields the cell does not read at
// their zero value (a web cell's outcome does not depend on
// ClipSeconds, so a web spec carries ClipSeconds 0 and probes with
// different clip settings still share the cached cell).
type CellSpec struct {
	// Testbed is "access" or "backbone" ("" for testbed-less cells
	// such as the wild CDN analysis).
	Testbed string
	// Scenario is the canonical workload encoding: a Table 1 preset
	// name ("noBG", "long-many", ...) or, for a custom mix, the
	// canonical component rendering ("up:long=2;down:web=48/1.5s" —
	// see testbed.Workload.Encode). The two alphabets cannot collide
	// (preset names never contain ':'), and builders must fold a mix
	// equal to a direction-masked preset onto the preset's name so
	// both spellings share one cell.
	Scenario string
	// Direction is the congestion direction on the access testbed:
	// "down", "up" or "bidir". It is meaningless — and canonicalized
	// away — on the backbone and for the idle noBG scenario, and empty
	// for custom mixes (their encoding names its own directions).
	Direction string
	// Buffer is the bottleneck buffer in packets (downlink on the
	// access testbed).
	Buffer int
	// BufferUp overrides the access uplink buffer when it differs
	// from Buffer; 0 means "same as Buffer".
	BufferUp int
	// Media names the foreground measurement ("voip", "web", "video",
	// "httpvideo", "background", "wild", ...).
	Media string
	// Variant is a canonical tag for any remaining knobs (queue
	// discipline, congestion control, video profile, fetch mode...).
	// "" is the paper's default configuration.
	Variant string
	// Link is the canonical encoding of a custom bottleneck link
	// (rates and delays differing from the testbed preset), e.g.
	// "up=1e+09;down=1e+09;cd=2ms;sd=10ms". "" is the preset link of
	// the named testbed. Builders must canonicalize: a custom link
	// equal to the preset must be encoded as "".
	Link string
	// Stop is the canonical encoding of an adaptive-replication
	// stopping rule ("ci<minReps>:<halfWidth>"), or "" for exhaustive
	// repetition. Unlike the observational Collector, the stopping rule
	// shapes the cell's value (it may run fewer reps), so it is a cache
	// axis: adaptive and exhaustive runs of the same cell occupy
	// distinct cache/store entries. It deliberately does NOT enter the
	// seed (see SeedKey): an adaptive cell's first n repetitions are
	// the same realizations as the exhaustive cell's, which is what
	// makes early-stopped results comparable to full runs.
	Stop string

	// Seed is the root seed; the cell's own seed is derived from it
	// together with the stimulus-defining fields only — see SeedKey
	// for the exact list. Comparison axes (buffer, media, variant,
	// link) deliberately do not perturb the seed.
	Seed uint64
	// Duration and Warmup are the background measurement window and
	// warmup of Options.
	Duration time.Duration
	Warmup   time.Duration
	// Reps is the number of calls/streams/fetches in the cell.
	Reps int
	// ClipSeconds is the video clip length (video cells only).
	ClipSeconds int
	// CDNFlows sizes the synthetic Section 3 population (wild cells
	// only).
	CDNFlows int
}

// Canonical normalizes a spec so that equivalent cells compare equal:
// the congestion direction is dropped where no congestion exists
// (backbone, noBG) and an uplink buffer equal to the downlink one is
// folded into Buffer. This is what makes the noBG columns of
// fig7a/fig7b/fig7c one set of cells instead of three.
func (s CellSpec) Canonical() CellSpec {
	if s.Testbed != "access" || s.Scenario == "noBG" || s.Scenario == "" {
		s.Direction = ""
	}
	if s.BufferUp == s.Buffer {
		s.BufferUp = 0
	}
	return s
}

// Key renders the canonical spec as the cache/seed key. The Stop axis
// is appended only when set, so every pre-existing cell keeps the
// content address it had before adaptive replication existed (the
// persistent store stays valid across the upgrade); the suffix cannot
// collide with a suffix-free key because those always end in "cdn=<n>".
// The store names cell files after the key's hash, so the rendering
// is fixed byte for byte: name=value fields joined by '|', integers in
// decimal, durations in nanoseconds (key_test.go keeps the equivalent
// fmt.Sprintf as the reference). It is appended by hand on a stack
// buffer because a warm re-query renders one key per cell.
//
//qoe:encodes CellSpec
func (s CellSpec) Key() string {
	c := s.Canonical()
	var buf [256]byte
	b := append(buf[:0], "tb="...)
	b = append(b, c.Testbed...)
	b = append(b, "|sc="...)
	b = append(b, c.Scenario...)
	b = append(b, "|dir="...)
	b = append(b, c.Direction...)
	b = append(b, "|buf="...)
	b = strconv.AppendInt(b, int64(c.Buffer), 10)
	b = append(b, "|bufup="...)
	b = strconv.AppendInt(b, int64(c.BufferUp), 10)
	b = append(b, "|media="...)
	b = append(b, c.Media...)
	b = append(b, "|var="...)
	b = append(b, c.Variant...)
	b = append(b, "|link="...)
	b = append(b, c.Link...)
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, c.Seed, 10)
	b = append(b, "|dur="...)
	b = strconv.AppendInt(b, int64(c.Duration), 10)
	b = append(b, "|warm="...)
	b = strconv.AppendInt(b, int64(c.Warmup), 10)
	b = append(b, "|reps="...)
	b = strconv.AppendInt(b, int64(c.Reps), 10)
	b = append(b, "|clip="...)
	b = strconv.AppendInt(b, int64(c.ClipSeconds), 10)
	b = append(b, "|cdn="...)
	b = strconv.AppendInt(b, int64(c.CDNFlows), 10)
	if c.Stop != "" {
		b = append(b, "|stop="...)
		b = append(b, c.Stop...)
	}
	return string(b)
}

// String is a compact human-readable form for logs and errors.
func (s CellSpec) String() string {
	c := s.Canonical()
	out := c.Media + "/" + c.Testbed + "/" + c.Scenario
	if c.Direction != "" {
		out += "/" + c.Direction
	}
	out += fmt.Sprintf("@%d", c.Buffer)
	if c.Variant != "" {
		out += "[" + c.Variant + "]"
	}
	if c.Link != "" {
		out += "{" + c.Link + "}"
	}
	if c.Stop != "" {
		out += "<" + c.Stop + ">"
	}
	return out
}
