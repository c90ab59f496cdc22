package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"bufferqoe"
	"bufferqoe/internal/engine"
)

//go:embed expected.json
var expectedJSON []byte

// expectedDigests is expected.json: for the pinned seed, a SHA-256
// over every cell value of each workload's grid and over each
// Recommend answer, valid for one engine.Version (the version is
// bumped exactly when cell values change).
type expectedDigests struct {
	EngineVersion string                       `json:"engine_version"`
	Seed          uint64                       `json:"seed"`
	Digests       map[string]map[string]string `json:"digests"`
}

func loadExpected() (expectedDigests, error) {
	var e expectedDigests
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// tally counts what a run attempted and what failed; every failed
// check leaves a note saying what was wrong.
type tally struct {
	Attempted, Failed int
	Notes             []string
}

// check counts one attempt, failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.Attempted++
	if !ok {
		t.fail(format, args...)
	}
}

// fail marks an already counted attempt as failed.
func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Notes) < 20 {
		t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	}
}

// addLoop counts a closed loop's attempts and failures.
func (t *tally) addLoop(what string, l loopResult) {
	t.Attempted += l.Attempted
	if l.Failed > 0 {
		t.Failed += l.Failed - 1
		t.fail("%d of %d %s failed", l.Failed, l.Attempted, what)
	}
}

// digest accumulates cell values into a SHA-256. Floats enter by bit
// pattern, so two digests agree only on bit-identical results.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) cell(c bufferqoe.SweepCell) {
	d.str(c.Scenario)
	d.str(c.Probe)
	d.u64(uint64(c.Buffer))
	d.str(c.Metric)
	d.f64(c.Value)
	d.f64(c.MOS)
	d.f64(c.TalkMOS)
}

func (d *digest) recommendation(r *bufferqoe.Recommendation) {
	d.u64(uint64(r.Buffer))
	d.f64(r.Score)
	if r.Met {
		d.u64(1)
	} else {
		d.u64(0)
	}
	for _, b := range r.BuffersTried {
		d.u64(uint64(b))
	}
	for _, c := range r.Cells {
		d.cell(c)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// gridDigest hashes every cell of a grid in grid order.
func gridDigest(g *bufferqoe.Grid) string {
	d := newDigest()
	for _, c := range g.Cells {
		d.cell(c)
	}
	return d.sum()
}

// cellInRange reports whether a cell's values are finite and inside
// the range its metric can take: an opinion score in [1, 5] (the
// E-model behind VoIP tops out at 4.5), SSIM in [0, 1], a positive
// page load time.
func cellInRange(c bufferqoe.SweepCell) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(c.Value) || !finite(c.MOS) || !finite(c.TalkMOS) {
		return false
	}
	if c.MOS < 1 || c.MOS > 5 {
		return false
	}
	switch c.Metric {
	case "mos":
		return c.MOS <= 4.5 && (c.TalkMOS == 0 || (c.TalkMOS >= 1 && c.TalkMOS <= 4.5))
	case "plt_s":
		return c.Value > 0
	case "ssim":
		return c.Value >= 0 && c.Value <= 1
	}
	return false
}

// checkCells range-checks every cell, one attempt each.
func (t *tally) checkCells(where string, cells []bufferqoe.SweepCell) {
	for _, c := range cells {
		t.check(cellInRange(c), "%s: cell %s/%s@%d out of range: %s=%v mos=%v talk=%v",
			where, c.Scenario, c.Probe, c.Buffer, c.Metric, c.Value, c.MOS, c.TalkMOS)
	}
}

// checkDigests compares a run's digests with the pinned ones. Only
// the pinned seed under the pinned engine version is compared; any
// other run reports that nothing was pinned for it.
func (t *tally) checkDigests(workload string, seed uint64, got map[string]string) (compared bool) {
	exp, err := loadExpected()
	if err != nil {
		t.check(false, "%v", err)
		return false
	}
	if seed != exp.Seed || engine.Version != exp.EngineVersion {
		return false
	}
	for name, want := range exp.Digests[workload] {
		t.check(got[name] == want, "%s: %s digest %s, expected.json pins %s", workload, name, got[name], want)
	}
	t.check(len(exp.Digests[workload]) > 0, "%s: expected.json pins no digest", workload)
	return true
}
