package media_test

import (
	"testing"

	"bufferqoe/internal/media"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/voip"
)

// FuzzLibraryActivity holds voip.Activity — the mask LibraryActivity
// decides frame by frame without synthesizing the recording — bit-equal
// to qoe.SpeechActivity of the frozen recording. The corpus holds every
// recording of three seeds, both voices among them.
func FuzzLibraryActivity(f *testing.F) {
	for _, seed := range []uint64{0, 42, 1 << 63} {
		for i := 0; i < media.LibrarySize; i++ {
			f.Add(seed, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, index uint8) {
		i := int(index) % media.LibrarySize
		want := qoe.SpeechActivity(media.FrozenLibrarySample(seed, i).PCM, media.SampleRate)
		got := voip.Activity(seed, i)
		if len(got) != len(want) {
			t.Fatalf("seed %d sample %d: %d frames, want %d", seed, i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("seed %d sample %d: frame %d active %v, want %v", seed, i, j, got[j], want[j])
			}
		}
	})
}
