package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// traceWriter serializes JSON-lines trace events to an io.Writer. It
// lives off the hot path: a cell emits at most one event, after its
// simulation has finished, so the mutex and the per-event allocation
// cannot perturb simulation timing or the engine's alloc budgets.
type traceWriter struct {
	w   io.Writer
	enc *json.Encoder
}

// TraceTo routes per-cell trace events to w as JSON lines (one object
// per line); nil disables tracing. Safe on a nil collector.
func (c *Collector) TraceTo(w io.Writer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace.w = w
	if w != nil {
		c.trace.enc = json.NewEncoder(w)
	} else {
		c.trace.enc = nil
	}
}

// TraceEvent is one line of the JSON-lines trace. The schema is
// documented in DESIGN.md ("Observability"); fields are stable.
type TraceEvent struct {
	// T is seconds since the collector was created.
	T float64 `json:"t"`
	// Kind discriminates event types; currently always "cell".
	Kind string `json:"kind"`
	// Cell is the cell's canonical label, e.g.
	// "voip/access/short-few/down@64".
	Cell string `json:"cell"`
	// Per-phase wall time in milliseconds.
	BuildMS float64 `json:"build_ms"`
	SimMS   float64 `json:"sim_ms"`
	ScoreMS float64 `json:"score_ms"`
	// Events is the total simulator events the cell fired; Heap the
	// deepest its timer heap ran, Near the deepest its near tier ran.
	Events uint64 `json:"events"`
	Heap   int    `json:"heap"`
	Near   int    `json:"near"`
	// Reference media the cell found in the session's content cache and
	// had to synthesize, and the wall time the synthesis took (already
	// inside the phase that asked for it).
	ContentHits  int     `json:"content_hits"`
	ContentSynth int     `json:"content_synth"`
	ContentMS    float64 `json:"content_ms"`
}

// traceCell emits one cell event if tracing is enabled.
func (c *Collector) traceCell(cell string, d [PhaseCount]time.Duration, m SimMetrics, u ContentUse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trace.enc == nil {
		return
	}
	// Encoding errors (e.g. a closed file) silently disable tracing
	// rather than failing the cell: telemetry must never affect results.
	ev := TraceEvent{
		T:       time.Since(c.start).Seconds(),
		Kind:    "cell",
		Cell:    cell,
		BuildMS: float64(d[PhaseBuild]) / 1e6,
		SimMS:   float64(d[PhaseSim]) / 1e6,
		ScoreMS: float64(d[PhaseScore]) / 1e6,
		Events:  m.Events(),
		Heap:    m.HeapHighWater,
		Near:    m.NearHighWater,

		ContentHits:  u.Hits,
		ContentSynth: u.Synthesized,
		ContentMS:    float64(u.SynthTime) / 1e6,
	}
	if err := c.trace.enc.Encode(ev); err != nil {
		c.trace.enc = nil
		c.trace.w = nil
	}
}
