package experiments

import (
	"testing"
)

func TestFig7cRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	r, err := Run(t.Context(), "fig7c", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The §7.2 shape: with combined up+down congestion at large
	// buffers, the talk direction is severely degraded (as in 7b).
	talk := r.Grids[0].Get("user-talks/long-many", "256").Value
	noBG := r.Grids[0].Get("user-talks/noBG", "256").Value
	if talk >= noBG {
		t.Fatalf("combined congestion talk MOS %.1f >= noBG %.1f", talk, noBG)
	}
}

func TestFig10cDominatedByUpload(t *testing.T) {
	r, err := Run(t.Context(), "fig10c", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// §9.2: with combined workloads the QoE is dominated by the
	// upload side: long-many at a big buffer must be far above the
	// idle baseline PLT.
	plt := r.Grids[0].Get("long-many", "256").Value
	base := r.Grids[0].Get("noBG", "256").Value
	if plt < 2*base {
		t.Fatalf("combined congestion PLT %.2fs vs baseline %.2fs: upload domination missing", plt, base)
	}
}

func TestAblationIW10Bounded(t *testing.T) {
	r, err := Run(t.Context(), "abl-iw10", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Under sustained upstream congestion both IWs land in the same
	// saturated QoE region at the bloated buffer: |delta MOS| < 1.5.
	d := r.Grids[0].Get("IW3 MOS", "256").Value - r.Grids[0].Get("IW10 MOS", "256").Value
	if d < 0 {
		d = -d
	}
	if d > 1.5 {
		t.Fatalf("IW choice moved bloated-buffer web MOS by %.1f", d)
	}
}

func TestAblationECNImprovesOverDropTail(t *testing.T) {
	r, err := Run(t.Context(), "abl-ecn", tiny())
	if err != nil {
		t.Fatal(err)
	}
	dt := r.Grids[0].Get("PLT", "drop-tail").Value
	ecn := r.Grids[0].Get("PLT", "codel-ecn").Value
	if ecn >= dt {
		t.Fatalf("ECN+CoDel PLT %.2fs >= drop-tail %.2fs at the bloated uplink", ecn, dt)
	}
}

func TestAblationByteQueueRuns(t *testing.T) {
	r, err := Run(t.Context(), "abl-bytequeue", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range r.Grids[0].Cols {
		v := r.Grids[0].Get("talk MOS", col).Value
		if v < 1 || v > 5 {
			t.Fatalf("talk MOS out of range for %s: %v", col, v)
		}
	}
}

func TestAblationIQXSameConclusion(t *testing.T) {
	r, err := Run(t.Context(), "abl-iqx", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The ablation's claim is model-agreement: wherever congestion has
	// pushed the PLT, the exponential IQX curve and the logarithmic
	// G.1030 curve must tell the same story, column by column.
	for _, col := range r.Grids[0].Cols {
		g1030 := r.Grids[0].Get("G.1030 MOS", col).Value
		iqx := r.Grids[0].Get("IQX MOS", col).Value
		d := g1030 - iqx
		if d < 0 {
			d = -d
		}
		if d > 1 {
			t.Fatalf("models disagree at %s pkts: G.1030 %.1f vs IQX %.1f", col, g1030, iqx)
		}
	}
	// And neither model may paint bloat as a rescue: the bloated
	// 256-packet column must not outscore the BDP column. (A tiny
	// 8-packet buffer legitimately protects the thin web flow against
	// the single long-few bulk upload at test scale — the same
	// mechanism abl-ecn shows for CoDel — so the spread bound is
	// anchored at BDP, not at the minimum.)
	for _, row := range []string{"G.1030 MOS", "IQX MOS"} {
		bdp := r.Grids[0].Get(row, "64").Value
		bloat := r.Grids[0].Get(row, "256").Value
		if bloat > bdp+0.5 {
			t.Fatalf("%s rates bloat (%.1f) above BDP (%.1f)", row, bloat, bdp)
		}
	}
}

func TestExtRecoveryImproves(t *testing.T) {
	r, err := Run(t.Context(), "ext-recovery", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// At moderate congestion both schemes must not hurt; at least one
	// must measurably improve on the baseline.
	base := r.Grids[0].Get("none", "short-medium").Value
	arq := r.Grids[0].Get("arq", "short-medium").Value
	fec := r.Grids[0].Get("fec", "short-medium").Value
	if arq < base-0.02 || fec < base-0.02 {
		t.Fatalf("recovery degraded quality: base %.3f arq %.3f fec %.3f", base, arq, fec)
	}
	if arq <= base && fec <= base {
		t.Fatalf("no recovery scheme improved SSIM: base %.3f arq %.3f fec %.3f", base, arq, fec)
	}
}

func TestExtPSNRAgreesWithSSIM(t *testing.T) {
	r, err := Run(t.Context(), "ext-psnr", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's omission argument: both metrics order the
	// workloads identically (noBG >= short-medium >= long).
	for _, row := range []string{"SSIM MOS", "PSNR MOS"} {
		clean := r.Grids[0].Get(row, "noBG").Value
		mid := r.Grids[0].Get(row, "short-medium").Value
		bad := r.Grids[0].Get(row, "long").Value
		if clean < mid-0.2 || mid < bad-0.2 {
			t.Fatalf("%s ordering violated: noBG %.1f, short-medium %.1f, long %.1f", row, clean, mid, bad)
		}
	}
}

func TestExtJitterDegradesCleanNetwork(t *testing.T) {
	r, err := Run(t.Context(), "ext-jitter", tiny())
	if err != nil {
		t.Fatal(err)
	}
	clean0 := r.Grids[0].Get("noBG listen MOS", "0s").Value
	clean30 := r.Grids[0].Get("noBG listen MOS", "30ms").Value
	if clean30 >= clean0 {
		t.Fatalf("30 ms last-hop jitter did not erode idle-network MOS: %.1f -> %.1f", clean0, clean30)
	}
}

func TestExtFQCoDelWebBestOrEqual(t *testing.T) {
	r, err := Run(t.Context(), "ext-fqcodel-web", tiny())
	if err != nil {
		t.Fatal(err)
	}
	dt := r.Grids[0].Get("PLT", "drop-tail").Value
	fq := r.Grids[0].Get("PLT", "fq-codel").Value
	if fq >= dt {
		t.Fatalf("FQ-CoDel PLT %.2fs >= drop-tail %.2fs over the congested uplink", fq, dt)
	}
}

func TestExtABRShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	r, err := Run(t.Context(), "ext-abr", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Idle network: every player works. The ABR rows carry the
	// bitrate-utility discount, amplified at test scale where a
	// two-segment clip never leaves the conservative start, so their
	// floor is lower than the fixed-rate player's.
	if v := r.Grids[0].Get("progressive-4M", "noBG").Value; v < 2.5 {
		t.Fatalf("progressive scored %.1f on an idle backbone", v)
	}
	for _, p := range []string{"abr-rate", "abr-buffer"} {
		if v := r.Grids[0].Get(p, "noBG").Value; v < 2.0 {
			t.Fatalf("%s scored %.1f on an idle backbone", p, v)
		}
	}
	// Sustained overload: adaptation cannot rescue the stream either.
	if v := r.Grids[0].Get("abr-rate", "long").Value; v > 2.5 {
		t.Fatalf("abr-rate scored %.1f under overload, want bad", v)
	}
}

func TestExtParWebNeutralAtBloat(t *testing.T) {
	r, err := Run(t.Context(), "ext-parweb", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// At the bloated congested uplink both fetch strategies land in
	// the same QoE region: parallelism must not differ by more than
	// one MOS point.
	d := r.Grids[0].Get("seq MOS", "256").Value - r.Grids[0].Get("par MOS", "256").Value
	if d < 0 {
		d = -d
	}
	if d > 1 {
		t.Fatalf("fetch strategy moved bloated-cell MOS by %.1f", d)
	}
}

func TestAblationBICConsistency(t *testing.T) {
	r, err := Run(t.Context(), "abl-bic", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// §5.2's claim across all three algorithms: the CC choice leaves
	// the QoE category unchanged (scores within ~1 MOS).
	lo, hi := 5.0, 1.0
	for _, col := range r.Grids[0].Cols {
		v := r.Grids[0].Get("listen MOS", col).Value
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 1.2 {
		t.Fatalf("background CC choice moved listen MOS by %.1f", hi-lo)
	}
}
