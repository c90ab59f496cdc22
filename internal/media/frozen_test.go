package media

import (
	"fmt"
	"math"
	"testing"

	"bufferqoe/internal/sim"
)

// frozenGenerateSpeech, frozenSegmentEnvelope and FrozenLibrarySample
// are GenerateSpeech, segmentEnvelope and LibrarySample as they were
// before the synthesis became a walk shared with LibraryActivity, kept
// verbatim: the reference the walk's eager and lazy paths are held
// bit-equal to.
func frozenGenerateSpeech(rng *sim.RNG, seconds float64, f0Base float64) []float64 {
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
				env := frozenSegmentEnvelope(i, segN)
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
				out[pos] = amp * frozenSegmentEnvelope(i, segN) * (noise - lp)
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

func frozenSegmentEnvelope(i, n int) float64 {
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

// FrozenLibrarySample is exported for the package's external tests,
// which hold voip.Activity to it.
func FrozenLibrarySample(seed uint64, i int) *Sample {
	if i < 0 || i >= LibrarySize {
		panic(fmt.Sprintf("media: library sample %d out of range", i))
	}
	voice, f0 := "male", 110.0
	if i%2 == 1 {
		voice, f0 = "female", 210.0
	}
	rng := sim.NewRNG(seed, fmt.Sprintf("speech-%d", i))
	pcm := frozenGenerateSpeech(rng, 8.0, f0)
	return &Sample{
		Name:  fmt.Sprintf("sample-%02d-%s", i, voice),
		Voice: voice,
		PCM:   ALawRoundTrip(pcm),
	}
}

// sameSignal fails t unless got and want hold bit-identical samples.
func sameSignal(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, frozen %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s differs at sample %d: %v, frozen %v", what, j, got[j], want[j])
		}
	}
}

// TestGenerateSpeechFrozen holds the walk's eager path bit-equal to
// the frozen synthesis: every recording of three seeds, and
// GenerateSpeech at other pitches and lengths — 700 Hz puts the upper
// harmonics past the band edge, 0.3 s cuts the walk inside a segment.
func TestGenerateSpeechFrozen(t *testing.T) {
	for _, seed := range []uint64{0, 42, 1 << 63} {
		for i := 0; i < LibrarySize; i++ {
			got, want := LibrarySample(seed, i), FrozenLibrarySample(seed, i)
			if got.Name != want.Name || got.Voice != want.Voice {
				t.Fatalf("seed %d sample %d: %s/%s, frozen %s/%s", seed, i, got.Name, got.Voice, want.Name, want.Voice)
			}
			sameSignal(t, fmt.Sprintf("seed %d sample %d", seed, i), got.PCM, want.PCM)
		}
	}
	for _, c := range []struct {
		seconds, f0 float64
	}{{4, 120}, {6, 120}, {8, 700}, {0.3, 110}, {0, 110}} {
		got := GenerateSpeech(sim.NewRNG(2, "speech"), c.seconds, c.f0)
		want := frozenGenerateSpeech(sim.NewRNG(2, "speech"), c.seconds, c.f0)
		sameSignal(t, fmt.Sprintf("GenerateSpeech(%vs, %v Hz)", c.seconds, c.f0), got, want)
	}
}

// TestVibratoTableCoversLongestSegment: the longest voiced segment
// the largest draw of its duration gives stays inside the table.
func TestVibratoTableCoversLongestSegment(t *testing.T) {
	lo, hi := 0.15, maxVoiced
	if longest := int((lo + (hi-lo)*math.Nextafter(1, 0)) * SampleRate); longest > len(vibratoTable) {
		t.Fatalf("longest voiced segment %d samples, vibrato table %d", longest, len(vibratoTable))
	}
}
