// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus the ablation studies DESIGN.md calls out.
// Each runner builds the right testbed(s), applies the Table 1
// workload, sweeps the Table 2 buffer configurations, and returns the
// same rows/series the paper reports, rendered as ASCII grids.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bufferqoe/internal/stats"
	"bufferqoe/internal/telemetry"
)

// Options scale an experiment run. The zero value gives CLI-friendly
// defaults; tests and benchmarks shrink them.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Duration is the background-traffic measurement window per cell.
	Duration time.Duration
	// Warmup runs background traffic before measuring.
	Warmup time.Duration
	// Reps is the number of calls/streams/fetches per cell (the paper
	// uses 200-2000 calls and 50 streams; medians stabilize far
	// earlier).
	Reps int
	// ClipSeconds is the video clip length (paper: 16 s).
	ClipSeconds int
	// CDNFlows sizes the synthetic Section 3 population.
	CDNFlows int
	// CIHalfWidth, when > 0, enables adaptive replication: a rep-loop
	// cell (VoIP, video, web) stops repeating once the 95% confidence
	// interval of its per-repetition QoE score has half-width at most
	// CIHalfWidth (in MOS points), instead of always running Reps
	// repetitions. The rule is part of the cell's identity
	// (CellSpec.Stop): adaptive and exhaustive runs cache separately,
	// and an adaptive cell's realizations are the exhaustive cell's
	// first n, so its result is within the configured half-width of the
	// full run's. Zero (the default) reproduces the paper's exhaustive
	// behavior bit-identically.
	CIHalfWidth float64
	// MinReps is the minimum repetitions before the stopping rule may
	// fire; 0 defaults to 2 when CIHalfWidth is set (a variance needs
	// two observations) and is clamped to Reps. Ignored when
	// CIHalfWidth is 0.
	MinReps int
	// Collector, when non-nil, receives per-cell telemetry — the
	// build/sim/score phase breakdown, simulator event counts, and
	// JSON-lines trace events — from cells computed under these
	// options. It is observational only: it never enters a cell spec,
	// so runs with and without a collector share cache entries and
	// produce bit-identical results (cached cells report nothing; only
	// fresh computes are traced). Session.SetCollector installs a
	// session-wide default for runs that leave this nil.
	Collector *telemetry.Collector
}

// withDefaults normalizes an Options value: zero and negative fields
// clamp to the documented defaults. Every entry point normalizes
// before building cell specs, so two callers whose options normalize
// equally submit byte-identical specs and share cache entries.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Duration <= 0 {
		o.Duration = 30 * time.Second
	}
	if o.Warmup <= 0 {
		o.Warmup = 5 * time.Second
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.ClipSeconds <= 0 {
		o.ClipSeconds = 4
	}
	if o.CDNFlows <= 0 {
		o.CDNFlows = 200000
	}
	if o.CIHalfWidth <= 0 {
		// Disabled: zero both fields so every exhaustive spelling
		// canonicalizes to the same (stop-free) cell specs.
		o.CIHalfWidth, o.MinReps = 0, 0
	} else {
		if o.MinReps < 2 {
			o.MinReps = 2
		}
		if o.MinReps > o.Reps {
			o.MinReps = o.Reps
		}
	}
	return o
}

// Cell is one heatmap/table entry.
type Cell struct {
	// Value is the primary numeric result (MOS, ms, %, SSIM...).
	Value float64
	// Text overrides the rendered value when set.
	Text string
	// Class is an optional category label (G.114 class, MOS rating).
	Class string
}

// Grid is a labeled 2D result (rows x columns), the shape of every
// heatmap in the paper.
type Grid struct {
	Title string
	Rows  []string
	Cols  []string
	cells map[string]Cell
}

// NewGrid creates an empty grid.
func NewGrid(title string, rows, cols []string) *Grid {
	return &Grid{Title: title, Rows: rows, Cols: cols, cells: map[string]Cell{}}
}

func key(row, col string) string { return row + "\x00" + col }

// Set stores a cell.
func (g *Grid) Set(row, col string, c Cell) { g.cells[key(row, col)] = c }

// Get returns a cell (zero Cell if unset).
func (g *Grid) Get(row, col string) Cell { return g.cells[key(row, col)] }

// Lookup returns a cell and whether it was ever set, so callers can
// tell a genuine zero value from an unknown coordinate.
func (g *Grid) Lookup(row, col string) (Cell, bool) {
	c, ok := g.cells[key(row, col)]
	return c, ok
}

// Render draws the grid as an aligned table; cells show the value and
// class (if any).
func (g *Grid) Render() string {
	header := append([]string{""}, g.Cols...)
	tb := stats.NewTable(header...)
	for _, r := range g.Rows {
		row := []string{r}
		for _, c := range g.Cols {
			cell := g.Get(r, c)
			txt := cell.Text
			if txt == "" {
				txt = stats.FormatFloat(cell.Value)
			}
			if cell.Class != "" {
				txt += " (" + cell.Class + ")"
			}
			row = append(row, txt)
		}
		tb.AddRow(row...)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n%s", g.Title, tb.String())
	return b.String()
}

// Result is one experiment's output.
type Result struct {
	ID    string
	Grids []*Grid
	Notes []string
}

// Render concatenates all grids and notes.
func (r *Result) Render() string {
	var b strings.Builder
	for _, g := range r.Grids {
		b.WriteString(g.Render())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// runner is one experiment implementation, bound to the session whose
// engine its cells run on; ctx bounds its cells.
type runner func(context.Context, *Session, Options) (*Result, error)

var registry = map[string]runner{
	"table1":          table1,
	"table2":          table2,
	"fig1a":           wild(fig1a),
	"fig1b":           wild(fig1b),
	"fig1c":           wild(fig1c),
	"fig4a":           func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig4(ctx, s, o, "a") },
	"fig4b":           func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig4(ctx, s, o, "b") },
	"fig4c":           func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig4(ctx, s, o, "c") },
	"fig5":            fig5,
	"fig7a":           func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig7(ctx, s, o, "a") },
	"fig7b":           func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig7(ctx, s, o, "b") },
	"fig7c":           func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig7(ctx, s, o, "c") },
	"fig8":            fig8,
	"fig9a":           func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig9(ctx, s, o, "a") },
	"fig9b":           func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig9(ctx, s, o, "b") },
	"fig10a":          func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig10(ctx, s, o, "a") },
	"fig10b":          func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig10(ctx, s, o, "b") },
	"fig10c":          func(ctx context.Context, s *Session, o Options) (*Result, error) { return fig10(ctx, s, o, "c") },
	"fig11":           fig11,
	"abl-aqm":         ablationAQM,
	"abl-bic":         ablationBIC,
	"abl-bytequeue":   ablationByteQueue,
	"abl-ccalgo":      ablationCC,
	"abl-ecn":         ablationECN,
	"abl-iqx":         ablationIQX,
	"abl-iw10":        ablationIW10,
	"abl-loadaware":   ablationLoadAware,
	"abl-smoothing":   ablationSmoothing,
	"abl-playout":     ablationPlayout,
	"abl-sack":        ablationSACK,
	"ext-abr":         extABR,
	"ext-clips":       extClips,
	"ext-fqcodel-web": extFQCoDelWeb,
	"ext-httpvideo":   extHTTPVideo,
	"ext-jitter":      extJitter,
	"ext-parweb":      extParWeb,
	"ext-psnr":        extPSNR,
	"ext-recovery":    extRecovery,
}

// IDs returns all experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID on the session's engine. Once
// ctx is canceled the run abandons its queued cells and returns
// ErrCanceled (in-flight cells drain into the cache).
func (s *Session) Run(ctx context.Context, id string, o Options) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	// A runner whose cells failed may have rendered part of a grid;
	// only its error is returned.
	res, err := r(ctx, s, s.opts(o))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Run executes one experiment by ID on the Default session.
func Run(ctx context.Context, id string, o Options) (*Result, error) {
	return Default.Run(ctx, id, o)
}

// Outcome is one experiment's entry in a RunAll batch.
type Outcome struct {
	ID      string
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// RunAll executes a batch of experiments and returns one Outcome per
// ID, in input order. Experiments run concurrently (their cells
// additionally fan out across the session's worker pool); a failing
// experiment records its error and does not stop the rest. Cells
// shared between experiments in the batch are simulated once: the
// engine coalesces duplicate in-flight specs and caches results.
// Once ctx is canceled, the experiments not yet finished record
// ErrCanceled outcomes instead of results.
func (s *Session) RunAll(ctx context.Context, ids []string, o Options) []Outcome {
	out := make([]Outcome, len(ids))
	// Experiment-level concurrency is bounded separately from the cell
	// pool: experiment goroutines spend almost all their time waiting
	// on cells, so a small multiple of the cell pool keeps it fed
	// without piling up every grid's bookkeeping at once.
	sem := make(chan struct{}, 2*s.Parallelism())
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// Canceled while waiting for an experiment slot: record
				// the abandonment without starting the run.
				out[i] = Outcome{ID: id, Err: ErrCanceled}
				return
			}
			defer func() { <-sem }()
			start := time.Now()
			res, err := s.Run(ctx, id, o)
			out[i] = Outcome{ID: id, Result: res, Err: err, Elapsed: time.Since(start)}
		}(i, id)
	}
	wg.Wait()
	return out
}
