package media

import (
	"fmt"
	"math"

	"bufferqoe/internal/sim"
)

// SampleRate is the narrow-band telephony rate used by G.711.
const SampleRate = 8000

// FrameDuration is the paper's RTP packetization interval: one G.711
// frame per 20 ms.
const FrameSamples = SampleRate / 50 // 160 samples per 20 ms

// Sample is one reference speech recording.
type Sample struct {
	Name  string
	Voice string // "male" or "female"
	PCM   []float64
}

// GenerateSpeech synthesizes a speech-like signal: alternating voiced
// segments (harmonic stacks with wandering fundamental and formant
// envelope), unvoiced fricative bursts (shaped noise), and pauses —
// the activity structure that makes loss location matter perceptually,
// as in real speech material.
func GenerateSpeech(rng *sim.RNG, seconds float64, f0Base float64) []float64 {
	w := speechWalk{rng: rng, f0Base: f0Base}
	out := make([]float64, int(seconds*SampleRate))
	w.fill(out)
	return out
}

// segmentKind is one of the three segments the speech grammar
// alternates between.
type segmentKind uint8

const (
	voiced segmentKind = iota
	unvoiced
	pause
)

// speechWalk is GenerateSpeech's segment walk, one sample at a time.
// step makes every RNG draw and state update of the next sample;
// value computes that sample. Synthesis calls both for every sample
// (fill); an activity mask calls value only while the sample's frame
// is undecided (LibraryActivity). Skipping value never changes a
// later sample: the draws, the low-pass state and the harmonic phases
// all advance in step.
type speechWalk struct {
	rng    *sim.RNG
	f0Base float64
	lp     float64 // one-pole low-pass state for unvoiced shaping

	// The current segment and the current sample's index i in it.
	kind    segmentKind
	segN, i int
	f0, amp float64
	phase   [8]float64

	// The current sample: a voiced one's bent fundamental and the
	// number of harmonics below the band edge, or the noise drawn for
	// an unvoiced or pause one.
	f     float64
	nh    int
	noise float64
}

// maxVoiced bounds a voiced segment's duration (s): it is drawn from
// [0.15, maxVoiced).
const maxVoiced = 0.45

// vibratoTable holds the vibrato term of a voiced segment's sample i,
// for every i a voiced segment reaches: the phases need it every
// sample, and a load is cheaper than a Sin.
var vibratoTable = func() (t [maxVoiced * SampleRate]float64) {
	for i := range t {
		t[i] = math.Sin(2 * math.Pi * 4 * float64(i) / SampleRate)
	}
	return t
}()

// segment draws the next segment's kind, length and parameters.
func (w *speechWalk) segment() {
	w.i = 0
	r := w.rng.Float64()
	switch {
	case r < 0.5:
		w.kind = voiced
		w.segN = int(w.rng.Uniform(0.15, maxVoiced) * SampleRate)
		w.f0 = w.f0Base * w.rng.Uniform(0.85, 1.15)
		w.amp = w.rng.Uniform(0.25, 0.5)
		w.phase = [8]float64{}
	case r < 0.72:
		w.kind = unvoiced
		w.segN = int(w.rng.Uniform(0.06, 0.2) * SampleRate)
		w.amp = w.rng.Uniform(0.04, 0.12)
	default:
		w.kind = pause
		w.segN = int(w.rng.Uniform(0.1, 0.4) * SampleRate)
	}
}

// step advances the walk to its next sample, drawing a new segment
// when the current one is spent.
func (w *speechWalk) step() {
	w.i++
	for w.i >= w.segN {
		w.segment()
	}
	switch w.kind {
	case voiced:
		// Slow vibrato on the fundamental.
		f := w.f0 * (1 + 0.03*vibratoTable[w.i])
		nh := 0
		for h := 1; h <= 8; h++ {
			fh := f * float64(h)
			if fh > SampleRate/2-200 {
				break
			}
			w.phase[h-1] += 2 * math.Pi * fh / SampleRate
			nh = h
		}
		w.f, w.nh = f, nh
	case unvoiced:
		w.noise = w.rng.Float64()*2 - 1
		// High-pass-ish: difference against low-passed state.
		w.lp += 0.25 * (w.noise - w.lp)
	default:
		w.noise = w.rng.Float64()*2 - 1
	}
}

// value returns the current sample.
func (w *speechWalk) value() float64 {
	switch w.kind {
	case voiced:
		env := segmentEnvelope(w.i, w.segN)
		v := 0.0
		for h := 1; h <= w.nh; h++ {
			fh := w.f * float64(h)
			// Formant-ish spectral tilt: -6 dB/octave with a
			// bump around 500-1500 Hz.
			wt := 1 / float64(h)
			if fh > 400 && fh < 1600 {
				wt *= 1.8
			}
			v += wt * math.Sin(w.phase[h-1])
		}
		return w.amp * env * v / 3
	case unvoiced:
		return w.amp * segmentEnvelope(w.i, w.segN) * (w.noise - w.lp)
	default:
		return 0.001 * w.noise // noise floor
	}
}

// fill synthesizes the walk's next len(out) samples into out.
func (w *speechWalk) fill(out []float64) {
	for pos := range out {
		w.step()
		out[pos] = w.value()
	}
}

// segmentEnvelope applies a 15 ms attack / 25 ms decay ramp.
func segmentEnvelope(i, n int) float64 {
	const attack = SampleRate * 15 / 1000
	const decay = SampleRate * 25 / 1000
	e := 1.0
	if i < attack {
		e = float64(i) / attack
	}
	if rem := n - i; rem < decay {
		e = math.Min(e, float64(rem)/decay)
	}
	return e
}

// LibrarySize is the number of recordings in the reference set.
const LibrarySize = 20

// librarySamples is the length of a reference recording: eight
// seconds, LibraryFrames frames.
const librarySamples = 8 * SampleRate

// LibraryFrames is the number of 20 ms frames in a reference
// recording: 400.
const LibraryFrames = librarySamples / FrameSamples

// LibrarySample synthesizes recording i (0 <= i < LibrarySize) of the
// stand-in for the ITU-recommended set of 20 speech samples (P.862
// Annex A): even indices are male (F0 ~110 Hz), odd ones female
// (F0 ~210 Hz), eight seconds each, passed through the G.711 A-law
// codec as the paper's error-free references were. Every recording
// draws from its own "speech-<i>" RNG stream, so one recording is a
// pure function of (seed, i) and costs a twentieth of the set.
func LibrarySample(seed uint64, i int) *Sample {
	voice, w := libraryWalk(seed, i)
	pcm := make([]float64, librarySamples)
	w.fill(pcm)
	return &Sample{
		Name:  fmt.Sprintf("sample-%02d-%s", i, voice),
		Voice: voice,
		PCM:   ALawRoundTrip(pcm),
	}
}

// LibraryActivity returns the activity mask of LibrarySample(seed, i)
// without synthesizing it: one entry per 20 ms frame, true where
// active(s, FrameSamples) holds for the sum s of the squares of the
// frame's codec samples, added in order. active must be monotone in
// s, as a level floor on sqrt(s/n) is: adding a square never lowers a
// rounded sum, so a frame whose running sum clears the floor is
// decided there, and the rest of its samples only advance the walk.
// A frame that never clears it is summed in full.
func LibraryActivity(seed uint64, i int, active func(sumSq float64, n int) bool) []bool {
	_, w := libraryWalk(seed, i)
	mask := make([]bool, LibraryFrames)
	for f := range mask {
		var s float64
		for range FrameSamples {
			w.step()
			if mask[f] {
				continue
			}
			x := ALawDecode(ALawEncode(w.value()))
			s += x * x
			mask[f] = active(s, FrameSamples)
		}
	}
	return mask
}

// libraryWalk returns recording i's voice and the walk that
// synthesizes it.
func libraryWalk(seed uint64, i int) (string, speechWalk) {
	if i < 0 || i >= LibrarySize {
		panic(fmt.Sprintf("media: library sample %d out of range", i))
	}
	voice, f0 := "male", 110.0
	if i%2 == 1 {
		voice, f0 = "female", 210.0
	}
	return voice, speechWalk{rng: sim.NewRNG(seed, fmt.Sprintf("speech-%d", i)), f0Base: f0}
}
