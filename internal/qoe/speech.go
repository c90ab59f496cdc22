package qoe

import (
	"math"
)

// SpeechQuality is a PESQ-style full-reference speech quality
// estimator: it compares the degraded signal against the error-free
// reference and returns a listening-quality MOS in [1, 4.5].
//
// Substitution note: ITU-T P.862 (PESQ) is a standard whose reference
// implementation is licensed, not redistributable. This estimator
// keeps PESQ's structure — frame-wise perceptual band analysis of
// both signals, asymmetric disturbance aggregation weighted by speech
// activity, logistic mapping to MOS — and is calibrated to the
// operating points the paper reports (clean G.711 -> ~4.4; heavy
// loss/concealment -> ~1). It is monotone in concealment-gap density
// and in added-noise energy, which is what the buffer/workload
// sensitivity study needs.
func SpeechQuality(ref, deg []float64, sampleRate int) float64 {
	n := len(ref)
	if len(deg) < n {
		n = len(deg)
	}
	frame := sampleRate / 50 // 20 ms
	if frame == 0 || n < frame {
		return 1
	}
	bands := speechBands(sampleRate)
	// One Hann window and two band-level buffers per call, shared by
	// every frame: the per-sample cosine used to dominate the CPU
	// profile (it was recomputed per band, per signal, per frame) and
	// the per-frame level slices dominated the allocation profile.
	win := hannWindow(frame)
	lr := make([]float64, len(bands))
	ld := make([]float64, len(bands))

	// Two disturbance components, PESQ-style:
	//   - gross temporal disruptions (concealment gaps, bursts) —
	//     their *density* among speech-active frames drives quality,
	//     calibrated against the ITU G.711 packet-loss MOS curves;
	//   - background spectral distortion of the surviving frames
	//     (codec noise, mild clipping).
	var nActive, disrupted int
	var distBg float64
	var nBg int
	var noiseFrames int
	for off := 0; off+frame <= n; off += frame {
		rf := ref[off : off+frame]
		df := deg[off : off+frame]
		eRef := rms(rf)
		eDeg := rms(df)
		if !speechActive(eRef) {
			if eDeg > 3*eRef+0.005 {
				noiseFrames++ // audible noise injected into silence
			}
			continue
		}
		nActive++
		if eRef <= maxExactRMS && sameBits(rf, df) {
			// An undamaged frame (every frame the receiver played out
			// on time is a copy of the reference): its level ratio is
			// x/x = 1, a 0 dB difference, and both signals give the
			// same band levels, so every band difference is lr-lr = 0
			// and the frame adds exactly 0 to distBg — without the 16
			// Goertzel passes.
			nBg++
			continue
		}
		totalDiff := math.Abs(10 * math.Log10((eRef*eRef+1e-8)/(eDeg*eDeg+1e-8)))
		if totalDiff > 15 {
			// Muted/concealed or grossly distorted frame.
			disrupted++
			continue
		}
		// Masking floor: band energy 40 dB below the frame total is
		// inaudible next to the rest of the frame; flooring both
		// signals there keeps quantization noise in empty bands from
		// dominating the distortion.
		floor := eRef*eRef*1e-4 + 1e-8
		bandLevels(lr, rf, win, sampleRate, bands, floor)
		bandLevels(ld, df, win, sampleRate, bands, floor)
		var d float64
		for b := range bands {
			diff := lr[b] - ld[b]
			if diff < 0 {
				// Added energy (noise) is more annoying than missing
				// energy (PESQ's asymmetry factor).
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
	mos := gapMOS(disrupted, nActive)
	// Background distortion penalty with a small inaudibility
	// threshold (keeps G.711 companding nearly free).
	if nBg > 0 {
		dbg := distBg/float64(nBg) - 1
		if dbg > 0 {
			mos -= 0.35 * math.Pow(dbg, 0.8)
		}
	}
	// Noise in pauses is mildly annoying.
	mos -= 2 * float64(noiseFrames) / float64(n/frame)
	if mos > 4.5 {
		mos = 4.5
	}
	if mos < 1 {
		mos = 1
	}
	return mos
}

// activityFloor is the reference frame level (RMS) at or below which
// SpeechQuality treats a frame as a pause: it scores noise injected
// into the frame, never the frame's loss.
const activityFloor = 0.01

// speechActive is the activity rule of SpeechQuality: a reference frame
// of the given level is speech unless the level is at most
// activityFloor (a NaN level counts as speech).
func speechActive(level float64) bool { return !(level <= activityFloor) }

// FrameActive is the activity rule on a reference frame of n samples
// whose squares sum to sumSq: speechActive of the frame's RMS level.
// It never turns false as sumSq grows, so a running sum of a frame's
// squares that satisfies it decides the frame.
func FrameActive(sumSq float64, n int) bool {
	return speechActive(math.Sqrt(sumSq / float64(n)))
}

// gapMOS maps the density of disrupted frames among speech-active ones
// onto MOS along the ITU-style exponential loss curve: 0% -> 4.45,
// 5% -> ~3.3, 10% -> ~2.5, 20% -> ~1.65.
func gapMOS(disrupted, nActive int) float64 {
	fGap := float64(disrupted) / float64(nActive)
	return 1 + 3.45*math.Exp(-fGap/0.12)
}

// SpeechActivity returns the activity mask of a reference signal: one
// entry per whole 20 ms frame, true where SpeechQuality counts the
// frame as speech. It is all PlayoutQuality needs of a recording.
func SpeechActivity(ref []float64, sampleRate int) []bool {
	frame := sampleRate / 50
	if frame == 0 {
		return nil
	}
	mask := make([]bool, len(ref)/frame)
	for i := range mask {
		mask[i] = FrameActive(sumSquares(ref[i*frame:(i+1)*frame]), frame)
	}
	return mask
}

// PlayoutQuality is SpeechQuality scored from masks: for a reference
// with samples in [-1, 1], activity mask active = SpeechActivity(ref),
// and a degraded signal whose frame i is a bit copy of the reference
// where played[i] and silence elsewhere — all a playout buffer that
// only loses or delays frames can hand the comparator — it returns
// SpeechQuality(ref, deg) bit for bit without either signal.
//
// A played speech frame is undamaged (nActive++, nBg++, distBg += 0). A
// silenced one drops from a level above activityFloor to 0, more than
// 40 dB, so it is disrupted. A pause adds nothing, played or silenced,
// and silence injects no noise. What SpeechQuality has left is the gap
// curve: the background penalty sees distBg = 0 and the noise penalty
// zero frames. played must be at least as long as active.
func PlayoutQuality(active, played []bool) float64 {
	var nActive, disrupted int
	for i, a := range active {
		if a {
			nActive++
			if !played[i] {
				disrupted++
			}
		}
	}
	if nActive == 0 {
		return 1
	}
	// In [1, 4.45]: SpeechQuality's clamp to [1, 4.5] never bites.
	return gapMOS(disrupted, nActive)
}

// speechBands returns the analysis band center frequencies, roughly
// mel-spaced over the telephony band.
func speechBands(sampleRate int) []float64 {
	bands := []float64{150, 300, 500, 800, 1200, 1800, 2500, 3400}
	nyq := float64(sampleRate) / 2
	out := bands[:0]
	for _, f := range bands {
		if f < nyq-100 {
			out = append(out, f)
		}
	}
	return out
}

// hannWindow returns the length-n Hann window used to reduce leakage
// between Goertzel bands. The caller computes it once per signal; the
// values (and therefore every downstream band level) are bit-identical
// to the previous per-sample inline computation.
func hannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// bandLevels fills out with per-band log energies (dB) of a frame
// using Goertzel filters — a stdlib-only substitute for an FFT front
// end. Band powers below floor are clamped to it (energetic masking).
func bandLevels(out, frame, win []float64, sampleRate int, bands []float64, floor float64) {
	for i, f := range bands {
		p := goertzelPower(frame, win, f, sampleRate)
		if p < floor {
			p = floor
		}
		out[i] = 10 * math.Log10(p)
	}
}

// goertzelPower returns the normalized signal power at frequency f.
// win must be hannWindow(len(x)); the accumulation expression must
// stay exactly `v*win + coeff*s1 - s2` so the result is bit-identical
// to the pre-windowing-hoist code on every architecture.
func goertzelPower(x, win []float64, f float64, sampleRate int) float64 {
	w := 2 * math.Pi * f / float64(sampleRate)
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for i, v := range x {
		wv := win[i]
		s0 = v*wv + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	return power / float64(len(x)*len(x))
}

// maxExactRMS bounds the frame level below which no intermediate of
// the frame analysis can overflow (PCM is nominally within [-1, 1]),
// so equal inputs provably give equal, finite band levels. Louder
// frames — and NaN ones, which fail every comparison — take the full
// path.
const maxExactRMS = 1e6

// sameBits reports whether two equal-length frames hold bit-identical
// samples.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func rms(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return math.Sqrt(sumSquares(x) / float64(len(x)))
}

// sumSquares sums the squares of x in order.
func sumSquares(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}
