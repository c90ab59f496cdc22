package qoe

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bufferqoe/internal/media"
	"bufferqoe/internal/sim"
)

func TestDelayImpairmentAnchors(t *testing.T) {
	if got := DelayImpairment(50 * time.Millisecond); got != 0 {
		t.Fatalf("Idd(50ms) = %v, want 0", got)
	}
	if got := DelayImpairment(100 * time.Millisecond); got != 0 {
		t.Fatalf("Idd(100ms) = %v, want 0", got)
	}
	// G.114: 150 ms is still fine, 400 ms noticeably impaired,
	// seconds are catastrophic.
	d150 := DelayImpairment(150 * time.Millisecond)
	d400 := DelayImpairment(400 * time.Millisecond)
	d3s := DelayImpairment(3 * time.Second)
	if d150 > 5 {
		t.Fatalf("Idd(150ms) = %v, want small", d150)
	}
	if d400 < 5 || d400 > 35 {
		t.Fatalf("Idd(400ms) = %v, want 5-35", d400)
	}
	// G.107's Idd asymptotes toward 50 for very large delays.
	if d3s < 40 || d3s > 50 {
		t.Fatalf("Idd(3s) = %v, want ~49 (G.107 asymptote)", d3s)
	}
	if !(d150 < d400 && d400 < d3s) {
		t.Fatal("Idd not monotone")
	}
}

// Property: Idd is monotone non-decreasing in delay.
func TestPropertyDelayImpairmentMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		da := time.Duration(a) * time.Millisecond
		db := time.Duration(b) * time.Millisecond
		if da > db {
			da, db = db, da
		}
		return DelayImpairment(da) <= DelayImpairment(db)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLossImpairment(t *testing.T) {
	if LossImpairment(0) != 0 {
		t.Fatal("Ie-eff(0) != 0")
	}
	// G.711/Bpl=4.3: 1% loss -> ~17.9, 5% -> ~51.
	if got := LossImpairment(1); math.Abs(got-17.92) > 0.5 {
		t.Fatalf("Ie-eff(1%%) = %v, want ~17.9", got)
	}
	if got := LossImpairment(5); math.Abs(got-51.1) > 1 {
		t.Fatalf("Ie-eff(5%%) = %v, want ~51", got)
	}
}

func TestRToMOSAnchors(t *testing.T) {
	// Standard anchors: R=93.2 -> MOS ~4.41; R=50 -> ~2.58; R=0 -> 1.
	if got := RToMOS(93.2); math.Abs(got-4.41) > 0.03 {
		t.Fatalf("MOS(93.2) = %v", got)
	}
	if got := RToMOS(50); math.Abs(got-2.58) > 0.05 {
		t.Fatalf("MOS(50) = %v", got)
	}
	if RToMOS(0) != 1 || RToMOS(-5) != 1 {
		t.Fatal("MOS floor broken")
	}
	if RToMOS(120) != 4.5 {
		t.Fatal("MOS ceiling broken")
	}
}

func TestMOSToRInvertsRToMOS(t *testing.T) {
	// Sun's cubic fit should roughly invert the G.107 mapping over
	// the useful range.
	for r := 10.0; r <= 95; r += 5 {
		mos := RToMOS(r)
		back := MOSToR(mos)
		if math.Abs(back-r) > 6 {
			t.Fatalf("R=%v -> MOS=%v -> R=%v (drift > 6)", r, mos, back)
		}
	}
}

func TestVoIPScoreCombination(t *testing.T) {
	// Perfect signal, no delay: excellent.
	clean := VoIPScore(4.4, 20*time.Millisecond)
	if clean < 4.0 {
		t.Fatalf("clean score = %v, want >= 4.0", clean)
	}
	// Perfect signal but 3 s one-way delay: conversation seriously
	// impaired. (Matches the paper's Figure 7b "user listens" cells of
	// ~2.1-2.3 at 256-packet uplink buffers, where the signal itself
	// is clean but the conversational delay impairment dominates.)
	delayed := VoIPScore(4.4, 3*time.Second)
	if delayed > 2.5 {
		t.Fatalf("3s-delay score = %v, want <= 2.5", delayed)
	}
	// Destroyed signal, no delay: bad regardless.
	lossy := VoIPScore(1.2, 20*time.Millisecond)
	if lossy > 1.5 {
		t.Fatalf("lossy score = %v", lossy)
	}
	if !(delayed < clean && lossy < clean) {
		t.Fatal("ordering violated")
	}
}

func TestSpeechQualityCleanSignal(t *testing.T) {
	rng := sim.NewRNG(3, "sq")
	pcm := media.GenerateSpeech(rng, 4.0, 120)
	mos := SpeechQuality(pcm, pcm, media.SampleRate)
	if mos < 4.2 {
		t.Fatalf("identical signals scored %v, want >= 4.2", mos)
	}
}

func TestSpeechQualityG711Codec(t *testing.T) {
	rng := sim.NewRNG(4, "sq2")
	pcm := media.GenerateSpeech(rng, 4.0, 120)
	deg := media.ALawRoundTrip(append([]float64(nil), pcm...))
	mos := SpeechQuality(pcm, deg, media.SampleRate)
	if mos < 3.9 {
		t.Fatalf("G.711 companding alone scored %v, want >= 3.9", mos)
	}
}

// degradeFrames zeroes a fraction of 20 ms frames (silence
// concealment of lost packets).
func degradeFrames(pcm []float64, lossFrac float64, seed uint64) []float64 {
	rng := sim.NewRNG(seed, "loss")
	out := make([]float64, len(pcm))
	copy(out, pcm)
	f := media.FrameSamples
	for off := 0; off+f <= len(out); off += f {
		if rng.Bool(lossFrac) {
			for i := off; i < off+f; i++ {
				out[i] = 0
			}
		}
	}
	return out
}

func TestSpeechQualityMonotoneInLoss(t *testing.T) {
	rng := sim.NewRNG(5, "sq3")
	pcm := media.GenerateSpeech(rng, 6.0, 120)
	prev := 5.0
	for _, loss := range []float64{0, 0.05, 0.15, 0.35, 0.7} {
		deg := degradeFrames(pcm, loss, 9)
		mos := SpeechQuality(pcm, deg, media.SampleRate)
		if mos > prev+0.05 {
			t.Fatalf("MOS not monotone in loss: %.0f%% loss -> %v (prev %v)",
				loss*100, mos, prev)
		}
		prev = mos
	}
	// Heavy loss must land near the bottom of the scale.
	heavy := SpeechQuality(pcm, degradeFrames(pcm, 0.7, 9), media.SampleRate)
	if heavy > 1.8 {
		t.Fatalf("70%% frame loss scored %v, want <= 1.8", heavy)
	}
}

func TestWebModelAnchors(t *testing.T) {
	m := AccessWebModel()
	if got := m.MOS(m.MinPLT - time.Millisecond); got != 5 {
		t.Fatalf("fast page = %v, want 5", got)
	}
	if got := m.MOS(7 * time.Second); got != 1 {
		t.Fatalf("slow page = %v, want 1", got)
	}
	// Logarithmic midpoint: sqrt(min*max) -> MOS 3.
	mid := time.Duration(math.Sqrt(m.MinPLT.Seconds()*m.MaxPLT.Seconds()) * float64(time.Second))
	if got := m.MOS(mid); math.Abs(got-3) > 0.05 {
		t.Fatalf("midpoint = %v, want ~3", got)
	}
	// The paper's Section 9.4 argument: 9 s -> 5 s is a large QoS
	// improvement but both are bad QoE.
	if m.MOS(9*time.Second) != 1 || m.MOS(5*time.Second) > 1.5 {
		t.Fatal("9s/5s should both be (nearly) bad")
	}
}

func TestWebModelMonotone(t *testing.T) {
	m := BackboneWebModel()
	prev := 6.0
	for ms := 100; ms < 10000; ms += 100 {
		got := m.MOS(time.Duration(ms) * time.Millisecond)
		if got > prev {
			t.Fatalf("MOS increased with PLT at %d ms", ms)
		}
		prev = got
	}
}

func TestPSNRBasics(t *testing.T) {
	a := make([]uint8, 64*64)
	b := make([]uint8, 64*64)
	for i := range a {
		a[i] = uint8(i % 200) // headroom so +20 below cannot overflow
		b[i] = a[i]
	}
	if !math.IsInf(PSNR(a, b), 1) {
		t.Fatal("identical planes PSNR != +Inf")
	}
	b[0] += 10
	p := PSNR(a, b)
	if p < 40 {
		t.Fatalf("one-pixel difference PSNR = %v", p)
	}
	for i := range b {
		b[i] = a[i] + 20
	}
	if got := PSNR(a, b); math.Abs(got-10*math.Log10(255.0*255.0/400.0)) > 0.01 {
		t.Fatalf("uniform-offset PSNR = %v", got)
	}
}

func TestSSIMBasics(t *testing.T) {
	w, h := 64, 64
	a := make([]uint8, w*h)
	rng := sim.NewRNG(6, "ssim")
	for i := range a {
		a[i] = uint8(rng.IntN(256))
	}
	b := make([]uint8, w*h)
	copy(b, a)
	if got := SSIM(a, b, w, h); math.Abs(got-1) > 1e-9 {
		t.Fatalf("identical SSIM = %v, want 1", got)
	}
	// Heavy corruption of half the frame must reduce SSIM clearly.
	for i := 0; i < w*h/2; i++ {
		b[i] = uint8(rng.IntN(256))
	}
	got := SSIM(a, b, w, h)
	if got > 0.7 {
		t.Fatalf("corrupted SSIM = %v, want < 0.7", got)
	}
}

func TestSSIMToMOSAnchors(t *testing.T) {
	if got := SSIMToMOS(1.0); got != 5 {
		t.Fatalf("SSIM 1 -> %v", got)
	}
	if got := SSIMToMOS(0.4); got != 1 {
		t.Fatalf("SSIM 0.4 -> %v", got)
	}
	if got := SSIMToMOS(0.95); math.Abs(got-4.0) > 0.01 {
		t.Fatalf("SSIM 0.95 -> %v, want 4.0", got)
	}
	// Monotonicity.
	prev := 0.0
	for s := 0.0; s <= 1.0; s += 0.01 {
		m := SSIMToMOS(s)
		if m < prev-1e-9 {
			t.Fatalf("SSIMToMOS not monotone at %v", s)
		}
		prev = m
	}
}

func TestPSNRToMOS(t *testing.T) {
	if PSNRToMOS(math.Inf(1)) != 5 {
		t.Fatal("inf PSNR != 5")
	}
	if PSNRToMOS(15) != 1 {
		t.Fatal("15dB != 1")
	}
	if got := PSNRToMOS(37); math.Abs(got-4) > 0.01 {
		t.Fatalf("37dB = %v", got)
	}
}

func TestVoIPSatisfactionScale(t *testing.T) {
	cases := map[float64]VoIPCategory{
		4.4: VerySatisfied,
		4.1: Satisfied,
		3.8: SomeSatisfied,
		3.3: ManyDissatisfied,
		2.8: NearlyAllDissatisf,
		1.5: NotRecommended,
	}
	for mos, want := range cases {
		if got := VoIPSatisfaction(mos); got != want {
			t.Fatalf("VoIPSatisfaction(%v) = %v, want %v", mos, got, want)
		}
	}
}

func TestRateScale(t *testing.T) {
	cases := map[float64]Rating{4.8: Excellent, 4.0: Good, 3.0: Fair, 2.0: Poor, 1.2: Bad}
	for mos, want := range cases {
		if got := Rate(mos); got != want {
			t.Fatalf("Rate(%v) = %v, want %v", mos, got, want)
		}
	}
}

func TestClassifyDelay(t *testing.T) {
	if ClassifyDelay(100*time.Millisecond) != DelayAcceptable {
		t.Fatal("100ms not acceptable")
	}
	if ClassifyDelay(300*time.Millisecond) != DelayProblematic {
		t.Fatal("300ms not problematic")
	}
	if ClassifyDelay(3*time.Second) != DelaySevere {
		t.Fatal("3s not severe")
	}
}
