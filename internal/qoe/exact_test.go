package qoe

import (
	"math"
	"testing"

	"bufferqoe/internal/media"
	"bufferqoe/internal/sim"
)

// The full loops SSIM, PSNR and SpeechQuality ran before they learned
// to skip undamaged rows and frames and to sum integer moments, kept
// verbatim as the references the fast paths are held bit-equal against.

func psnrRef(ref, deg []uint8) float64 {
	if len(ref) == 0 || len(ref) != len(deg) {
		return math.NaN()
	}
	var mse float64
	for i := range ref {
		d := float64(ref[i]) - float64(deg[i])
		mse += d * d
	}
	mse /= float64(len(ref))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func ssimRef(ref, deg []uint8, w, h int) float64 {
	if len(ref) != w*h || len(deg) != w*h || w < 8 || h < 8 {
		return math.NaN()
	}
	const (
		k1, k2 = 0.01, 0.03
		L      = 255.0
		win    = 8
		stride = 4
	)
	c1 := (k1 * L) * (k1 * L)
	c2 := (k2 * L) * (k2 * L)
	var sum float64
	var count int
	for y := 0; y+win <= h; y += stride {
		for x := 0; x+win <= w; x += stride {
			var ma, mb float64
			for j := 0; j < win; j++ {
				row := (y+j)*w + x
				for i := 0; i < win; i++ {
					ma += float64(ref[row+i])
					mb += float64(deg[row+i])
				}
			}
			n := float64(win * win)
			ma /= n
			mb /= n
			var va, vb, cov float64
			for j := 0; j < win; j++ {
				row := (y+j)*w + x
				for i := 0; i < win; i++ {
					da := float64(ref[row+i]) - ma
					db := float64(deg[row+i]) - mb
					va += da * da
					vb += db * db
					cov += da * db
				}
			}
			va /= n - 1
			vb /= n - 1
			cov /= n - 1
			s := ((float64(2*ma*mb) + c1) * (2*cov + c2)) /
				((float64(ma*ma) + float64(mb*mb) + c1) * (va + vb + c2))
			sum += s
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return sum / float64(count)
}

func speechQualityRef(ref, deg []float64, sampleRate int) float64 {
	n := len(ref)
	if len(deg) < n {
		n = len(deg)
	}
	frame := sampleRate / 50
	if frame == 0 || n < frame {
		return 1
	}
	bands := speechBands(sampleRate)
	win := hannWindow(frame)
	lr := make([]float64, len(bands))
	ld := make([]float64, len(bands))
	var nActive, disrupted int
	var distBg float64
	var nBg int
	var noiseFrames int
	for off := 0; off+frame <= n; off += frame {
		rf := ref[off : off+frame]
		df := deg[off : off+frame]
		eRef := rms(rf)
		eDeg := rms(df)
		if eRef <= 0.01 {
			if eDeg > 3*eRef+0.005 {
				noiseFrames++
			}
			continue
		}
		nActive++
		totalDiff := math.Abs(10 * math.Log10((eRef*eRef+1e-8)/(eDeg*eDeg+1e-8)))
		if totalDiff > 15 {
			disrupted++
			continue
		}
		floor := eRef*eRef*1e-4 + 1e-8
		bandLevels(lr, rf, win, sampleRate, bands, floor)
		bandLevels(ld, df, win, sampleRate, bands, floor)
		var d float64
		for b := range bands {
			diff := lr[b] - ld[b]
			if diff < 0 {
				diff = -1.4 * diff
			}
			d += diff
		}
		distBg += d / float64(len(bands))
		nBg++
	}
	if nActive == 0 {
		return 1
	}
	fGap := float64(disrupted) / float64(nActive)
	mos := 1 + 3.45*math.Exp(-fGap/0.12)
	if nBg > 0 {
		dbg := distBg/float64(nBg) - 1
		if dbg > 0 {
			mos -= 0.35 * math.Pow(dbg, 0.8)
		}
	}
	mos -= 2 * float64(noiseFrames) / float64(n/frame)
	if mos > 4.5 {
		mos = 4.5
	}
	if mos < 1 {
		mos = 1
	}
	return mos
}

// sameFloat is bit equality, so NaN == NaN and +0 != -0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSSIMIdenticalIsExactlyOne: what lets the clean-row shortcut add
// a literal 1 per window.
func TestSSIMIdenticalIsExactlyOne(t *testing.T) {
	rng := sim.NewRNG(5, "ssim-identical")
	for _, dim := range [][2]int{{128, 96}, {192, 144}, {8, 8}, {13, 11}} {
		w, h := dim[0], dim[1]
		plane := make([]uint8, w*h)
		for i := range plane {
			plane[i] = uint8(rng.IntN(256))
		}
		if got := SSIM(plane, append([]uint8(nil), plane...), w, h); got != 1 {
			t.Errorf("%dx%d: SSIM(x, x) = %v, want exactly 1", w, h, got)
		}
		if got := ssimRef(plane, plane, w, h); got != 1 {
			t.Errorf("%dx%d: reference SSIM(x, x) = %v, want exactly 1", w, h, got)
		}
	}
}

// TestSSIMMatchesReference freezes random subsets of the 32 slices of
// random SD and HD planes onto a different picture, as the decoder's
// concealment does, and holds the fast SSIM bit-equal to the full one.
func TestSSIMMatchesReference(t *testing.T) {
	rng := sim.NewRNG(7, "ssim-slices")
	const slices = 32
	for _, dim := range [][2]int{{128, 96}, {192, 144}} {
		w, h := dim[0], dim[1]
		for trial := 0; trial < 40; trial++ {
			ref := make([]uint8, w*h)
			old := make([]uint8, w*h)
			for i := range ref {
				ref[i] = uint8(rng.IntN(256))
				old[i] = uint8(rng.IntN(256))
			}
			deg := append([]uint8(nil), ref...)
			// Trials sweep the frozen share from none to all.
			share := float64(trial) / 39
			for s := 0; s < slices; s++ {
				if rng.Float64() < share {
					lo, hi := s*h/slices*w, (s+1)*h/slices*w
					copy(deg[lo:hi], old[lo:hi])
				}
			}
			got, want := SSIM(ref, deg, w, h), ssimRef(ref, deg, w, h)
			if !sameFloat(got, want) {
				t.Fatalf("%dx%d trial %d: SSIM = %v, reference %v", w, h, trial, got, want)
			}
		}
	}
	// The degenerate inputs answer NaN on both paths.
	small := make([]uint8, 7*7)
	if got := SSIM(small, small, 7, 7); !math.IsNaN(got) {
		t.Errorf("SSIM on a 7x7 plane = %v, want NaN", got)
	}
}

// TestSpeechQualityMatchesReference mixes copied, silenced and
// noise-added frames — what a playout buffer hands the comparator —
// and holds the fast SpeechQuality bit-equal to the full one,
// including on NaN samples, absurd levels and a short degraded signal.
func TestSpeechQualityMatchesReference(t *testing.T) {
	const rate, frame = 8000, 160
	rng := sim.NewRNG(11, "speech-frames")
	ref := make([]float64, 200*frame)
	for f := 0; f < 200; f++ {
		amp := 0.3
		if f%5 == 4 {
			amp = 0.002 // a pause
		}
		for i := 0; i < frame; i++ {
			ref[f*frame+i] = amp * math.Sin(2*math.Pi*440*float64(f*frame+i)/rate) * (0.5 + 0.5*rng.Float64())
		}
	}
	check := func(name string, ref, deg []float64) {
		t.Helper()
		got, want := SpeechQuality(ref, deg, rate), speechQualityRef(ref, deg, rate)
		if !sameFloat(got, want) {
			t.Errorf("%s: SpeechQuality = %v, reference %v", name, got, want)
		}
	}
	for trial := 0; trial < 30; trial++ {
		deg := append([]float64(nil), ref...)
		share := float64(trial) / 29
		for f := 0; f < 200; f++ {
			if rng.Float64() >= share {
				continue
			}
			fr := deg[f*frame : (f+1)*frame]
			switch rng.IntN(3) {
			case 0: // concealed
				for i := range fr {
					fr[i] = 0
				}
			case 1: // noise added
				for i := range fr {
					fr[i] += 0.05 * (rng.Float64()*2 - 1)
				}
			case 2: // one sample nudged by an ulp
				fr[rng.IntN(frame)] = math.Nextafter(fr[0], 2)
			}
		}
		check("mix", ref, deg)
	}
	check("identical", ref, append([]float64(nil), ref...))
	check("short deg", ref, append([]float64(nil), ref[:37*frame+50]...))

	// Frames the shortcut must refuse although their bits are equal:
	// the full path turns each into a NaN distortion sum, which cancels
	// the background penalty the noisy frames around it earned.
	noisy := append([]float64(nil), ref...)
	for i := range noisy {
		noisy[i] += 0.05 * (rng.Float64()*2 - 1)
	}
	tone := func(i int) float64 { return math.Sin(2 * math.Pi * 150 * float64(i) / rate) }
	for name, v := range map[string]func(i int) float64{
		"NaN":                 func(int) float64 { return math.NaN() },
		"Inf":                 func(int) float64 { return math.Inf(1) },
		"overflowing squares": func(int) float64 { return 1e200 },
		// A finite level whose 150 Hz band power overflows: levels Inf,
		// difference NaN. (With the level guard widened to admit this
		// frame the fast path scores 3.74 against the reference's 4.05.)
		"overflowing band power": func(i int) float64 { return 1.2e153 * tone(i) },
	} {
		odd := append([]float64(nil), ref...)
		deg := append([]float64(nil), noisy...)
		for i := 0; i < frame; i++ {
			odd[16*frame+i], deg[16*frame+i] = v(i), v(i)
		}
		check(name, odd, deg)
	}
	// Negative zeros compare equal as floats but are different bits.
	zeros := append([]float64(nil), ref...)
	negs := append([]float64(nil), ref...)
	for i := 20 * frame; i < 20*frame+40; i++ {
		zeros[i], negs[i] = 0, math.Copysign(0, -1)
	}
	check("signed zeros", zeros, negs)
}

// copyOrSilence is the degraded signal a playout buffer that only
// loses or delays frames hands the comparator: frame i of ref where
// played[i], silence elsewhere.
func copyOrSilence(ref []float64, played []bool) []float64 {
	const frame = media.FrameSamples
	deg := make([]float64, len(ref))
	for i, p := range played {
		if p {
			copy(deg[i*frame:(i+1)*frame], ref[i*frame:])
		}
	}
	return deg
}

// FuzzSpeechPlayout holds PlayoutQuality bit-equal to SpeechQuality on
// the signal it stands for: library recording (seed, index), cut to its
// first frames%401 frames or silenced whole, played where bit i%8 of
// mask[i/8%len(mask)] is set (nowhere for an empty mask).
func FuzzSpeechPlayout(f *testing.F) {
	f.Add(uint64(42), uint8(0), uint16(400), false, []byte{0xff}) // every frame played
	f.Add(uint64(42), uint8(1), uint16(400), false, []byte{})     // none played
	f.Add(uint64(7), uint8(3), uint16(400), true, []byte{0x5a})   // an all-silent reference
	f.Add(uint64(9), uint8(4), uint16(1), false, []byte{0x00})    // a one-frame signal
	f.Add(uint64(1), uint8(19), uint16(400), false, []byte{0xf7, 0x3d, 0xff, 0x81})
	f.Fuzz(func(t *testing.T, seed uint64, index uint8, frames uint16, silent bool, mask []byte) {
		ref := media.LibrarySample(seed, int(index)%media.LibrarySize).PCM
		n := int(frames) % (len(ref)/media.FrameSamples + 1)
		ref = ref[:n*media.FrameSamples]
		if silent {
			clear(ref)
		}
		played := make([]bool, n)
		for i := range played {
			played[i] = len(mask) > 0 && mask[i/8%len(mask)]>>(i%8)&1 == 1
		}
		got := PlayoutQuality(SpeechActivity(ref, media.SampleRate), played)
		want := SpeechQuality(ref, copyOrSilence(ref, played), media.SampleRate)
		if !sameFloat(got, want) {
			t.Fatalf("%d frames: PlayoutQuality = %v, SpeechQuality of the played signal %v", n, got, want)
		}
	})
}
