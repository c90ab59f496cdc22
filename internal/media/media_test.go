package media

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bufferqoe/internal/sim"
)

func TestALawRoundTripAccuracy(t *testing.T) {
	// Companding noise should stay small relative to the signal
	// (G.711 achieves ~38 dB SNR; our continuous model is similar).
	rng := sim.NewRNG(1, "alaw")
	var sig, noise float64
	for i := 0; i < 10000; i++ {
		x := rng.Uniform(-0.8, 0.8)
		y := ALawDecode(ALawEncode(x))
		sig += x * x
		noise += (x - y) * (x - y)
	}
	snr := 10 * math.Log10(sig/noise)
	if snr < 30 {
		t.Fatalf("A-law SNR = %.1f dB, want > 30", snr)
	}
}

// alawDecodeRef is the expansion ALawDecode computed per sample before
// it became a table lookup, kept verbatim.
func alawDecodeRef(b byte) float64 {
	sign := 1.0
	if b&0x80 == 0 {
		sign = -1
	}
	y := float64(b&0x7f) / 127
	var x float64
	if y < 1/alawDenom {
		x = y * alawDenom / alawA
	} else {
		x = math.Exp(y*alawDenom-1) / alawA
	}
	return sign * x
}

// TestALawDecodeTable holds the decode table bit-equal to the
// expansion on all 256 code points.
func TestALawDecodeTable(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := ALawDecode(byte(b)), alawDecodeRef(byte(b)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ALawDecode(%#02x) = %v, expansion %v", b, got, want)
		}
	}
}

func TestALawSignPreserved(t *testing.T) {
	for _, x := range []float64{-0.5, -0.01, 0.01, 0.5} {
		y := ALawDecode(ALawEncode(x))
		if x*y <= 0 {
			t.Fatalf("sign lost: %v -> %v", x, y)
		}
	}
}

func TestALawClamps(t *testing.T) {
	if y := ALawDecode(ALawEncode(2.0)); y > 1.01 {
		t.Fatalf("overrange encode produced %v", y)
	}
}

// Property: decode(encode(x)) stays within the quantization error
// bound and inside [-1, 1].
func TestPropertyALawBounded(t *testing.T) {
	f := func(raw int16) bool {
		x := float64(raw) / 32768
		y := ALawDecode(ALawEncode(x))
		return y >= -1.01 && y <= 1.01 && math.Abs(x-y) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateSpeechShape(t *testing.T) {
	rng := sim.NewRNG(2, "speech")
	pcm := GenerateSpeech(rng, 8.0, 110)
	if len(pcm) != 8*SampleRate {
		t.Fatalf("length = %d, want %d", len(pcm), 8*SampleRate)
	}
	// Signal must be bounded and have both active and quiet regions.
	var peak float64
	active, quiet := 0, 0
	frame := FrameSamples
	for off := 0; off+frame <= len(pcm); off += frame {
		var e float64
		for _, v := range pcm[off : off+frame] {
			if math.Abs(v) > peak {
				peak = math.Abs(v)
			}
			e += v * v
		}
		r := math.Sqrt(e / float64(frame))
		if r > 0.01 {
			active++
		} else {
			quiet++
		}
	}
	if peak > 1.0 {
		t.Fatalf("peak = %v, want <= 1", peak)
	}
	if active < 100 {
		t.Fatalf("too few active frames: %d", active)
	}
	if quiet < 20 {
		t.Fatalf("too few quiet frames: %d (no speech pauses)", quiet)
	}
}

// Library is the retained whole-set reference LibrarySample is held
// against: the loop that used to synthesize all 20 recordings per
// seed, kept verbatim.
func Library(seed uint64) []*Sample {
	out := make([]*Sample, 0, 20)
	for i := 0; i < 20; i++ {
		voice, f0 := "male", 110.0
		if i%2 == 1 {
			voice, f0 = "female", 210.0
		}
		rng := sim.NewRNG(seed, fmt.Sprintf("speech-%d", i))
		pcm := GenerateSpeech(rng, 8.0, f0)
		out = append(out, &Sample{
			Name:  fmt.Sprintf("sample-%02d-%s", i, voice),
			Voice: voice,
			PCM:   ALawRoundTrip(pcm),
		})
	}
	return out
}

// TestLibrarySampleMatchesLibrary: one recording synthesized alone is
// bit-equal to the same recording synthesized as part of the set, in
// any order of asking.
func TestLibrarySampleMatchesLibrary(t *testing.T) {
	if LibrarySize != 20 {
		t.Fatalf("LibrarySize = %d, want 20", LibrarySize)
	}
	for _, seed := range []uint64{0, 42, 1 << 63} {
		lib := Library(seed)
		for i := LibrarySize - 1; i >= 0; i-- {
			got, want := LibrarySample(seed, i), lib[i]
			if got.Name != want.Name || got.Voice != want.Voice || len(got.PCM) != len(want.PCM) {
				t.Fatalf("seed %d sample %d: got %s/%s/%d, want %s/%s/%d", seed, i,
					got.Name, got.Voice, len(got.PCM), want.Name, want.Voice, len(want.PCM))
			}
			for j := range want.PCM {
				if math.Float64bits(got.PCM[j]) != math.Float64bits(want.PCM[j]) {
					t.Fatalf("seed %d sample %d differs at %d", seed, i, j)
				}
			}
		}
	}
}

func TestLibrarySampleRange(t *testing.T) {
	for _, i := range []int{-1, LibrarySize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LibrarySample(1, %d) did not panic", i)
				}
			}()
			LibrarySample(1, i)
		}()
	}
}

func TestLibrary(t *testing.T) {
	lib := Library(42)
	if len(lib) != 20 {
		t.Fatalf("library size = %d", len(lib))
	}
	male, female := 0, 0
	for _, s := range lib {
		if len(s.PCM) != 400*FrameSamples { // 8 s at 50 frames/s
			t.Fatalf("%s holds %d samples, want 400 frames of %d", s.Name, len(s.PCM), FrameSamples)
		}
		switch s.Voice {
		case "male":
			male++
		case "female":
			female++
		}
	}
	if male != 10 || female != 10 {
		t.Fatalf("male/female = %d/%d", male, female)
	}
}

func TestLibraryDeterministic(t *testing.T) {
	a := Library(7)
	b := Library(7)
	for i := range a {
		for j := range a[i].PCM {
			if a[i].PCM[j] != b[i].PCM[j] {
				t.Fatal("library not deterministic")
			}
		}
	}
	c := Library(8)
	if a[0].PCM[100] == c[0].PCM[100] && a[0].PCM[5000] == c[0].PCM[5000] {
		t.Fatal("different seeds gave identical samples")
	}
}
