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
	n := int(seconds * SampleRate)
	out := make([]float64, n)
	pos := 0
	lp := 0.0 // one-pole low-pass state for unvoiced shaping
	for pos < n {
		r := rng.Float64()
		switch {
		case r < 0.5: // voiced
			segN := int(rng.Uniform(0.15, 0.45) * SampleRate)
			f0 := f0Base * rng.Uniform(0.85, 1.15)
			amp := rng.Uniform(0.25, 0.5)
			var phase [8]float64
			for i := 0; i < segN && pos < n; i, pos = i+1, pos+1 {
				// Slow vibrato on the fundamental.
				f := f0 * (1 + 0.03*math.Sin(2*math.Pi*4*float64(i)/SampleRate))
				env := segmentEnvelope(i, segN)
				v := 0.0
				for h := 1; h <= 8; h++ {
					fh := f * float64(h)
					if fh > SampleRate/2-200 {
						break
					}
					phase[h-1] += 2 * math.Pi * fh / SampleRate
					// Formant-ish spectral tilt: -6 dB/octave with a
					// bump around 500-1500 Hz.
					w := 1 / float64(h)
					if fh > 400 && fh < 1600 {
						w *= 1.8
					}
					v += w * math.Sin(phase[h-1])
				}
				out[pos] = amp * env * v / 3
			}
		case r < 0.72: // unvoiced
			segN := int(rng.Uniform(0.06, 0.2) * SampleRate)
			amp := rng.Uniform(0.04, 0.12)
			for i := 0; i < segN && pos < n; i, pos = i+1, pos+1 {
				noise := rng.Float64()*2 - 1
				// High-pass-ish: difference against low-passed state.
				lp += 0.25 * (noise - lp)
				out[pos] = amp * segmentEnvelope(i, segN) * (noise - lp)
			}
		default: // pause
			segN := int(rng.Uniform(0.1, 0.4) * SampleRate)
			for i := 0; i < segN && pos < n; i, pos = i+1, pos+1 {
				out[pos] = 0.001 * (rng.Float64()*2 - 1) // noise floor
			}
		}
	}
	return out
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

// LibrarySample synthesizes recording i (0 <= i < LibrarySize) of the
// stand-in for the ITU-recommended set of 20 speech samples (P.862
// Annex A): even indices are male (F0 ~110 Hz), odd ones female
// (F0 ~210 Hz), eight seconds each, passed through the G.711 A-law
// codec as the paper's error-free references were. Every recording
// draws from its own "speech-<i>" RNG stream, so one recording is a
// pure function of (seed, i) and costs a twentieth of the set.
func LibrarySample(seed uint64, i int) *Sample {
	if i < 0 || i >= LibrarySize {
		panic(fmt.Sprintf("media: library sample %d out of range", i))
	}
	voice, f0 := "male", 110.0
	if i%2 == 1 {
		voice, f0 = "female", 210.0
	}
	rng := sim.NewRNG(seed, fmt.Sprintf("speech-%d", i))
	pcm := GenerateSpeech(rng, 8.0, f0)
	return &Sample{
		Name:  fmt.Sprintf("sample-%02d-%s", i, voice),
		Voice: voice,
		PCM:   ALawRoundTrip(pcm),
	}
}
