package qoe

import (
	"testing"

	"bufferqoe/internal/sim"
)

// fill repeats src over a w*h plane (zeros for an empty src).
func fill(src []byte, w, h int) []uint8 {
	p := make([]uint8, w*h)
	if len(src) > 0 {
		for i := range p {
			p[i] = src[i%len(src)]
		}
	}
	return p
}

// FuzzSSIMExact holds the block-moment SSIM and the integer PSNR
// bit-equal to their float references on a w x h plane pair (w, h up
// to 64): ref and other repeat their bytes over the plane, and the
// degraded plane is the reference on every row y whose bit y%64 of
// clean is set, other elsewhere — the copied slices of a decoded frame.
func FuzzSSIMExact(f *testing.F) {
	rng := sim.NewRNG(3, "ssim-fuzz")
	noise := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		return b
	}
	f.Add(uint8(13), uint8(11), noise(143), noise(143), uint64(0))            // neither side a multiple of 4
	f.Add(uint8(63), uint8(61), noise(997), noise(1009), uint64(0x0f0f))      // wide, odd, partly clean
	f.Add(uint8(8), uint8(8), noise(64), noise(64), uint64(0))                // one window
	f.Add(uint8(7), uint8(7), noise(49), noise(49), uint64(0))                // too small: NaN
	f.Add(uint8(32), uint8(24), []byte{0, 255}, []byte{255, 0}, uint64(0))    // saturated, anti-correlated
	f.Add(uint8(32), uint8(24), []byte{0}, []byte{255}, uint64(0))            // saturated, flat
	f.Add(uint8(40), uint8(40), []byte{7}, []byte{200}, uint64(0))            // zero variance both sides
	f.Add(uint8(40), uint8(40), []byte{7}, noise(40), uint64(0))              // zero variance on one side
	f.Add(uint8(64), uint8(48), noise(3072), noise(3072), uint64(0xf0f0f0f0)) // frozen bands of 4 rows
	f.Add(uint8(64), uint8(64), noise(4096), noise(4096), ^uint64(0))         // undamaged
	f.Add(uint8(64), uint8(64), noise(4096), noise(4096), uint64(0x00ff00ff)) // frozen bands of 8 rows
	f.Fuzz(func(t *testing.T, w, h uint8, ref, other []byte, clean uint64) {
		W, H := int(w)%65, int(h)%65
		a, b := fill(ref, W, H), fill(other, W, H)
		for y := 0; y < H; y++ {
			if clean>>(y%64)&1 == 1 {
				copy(b[y*W:(y+1)*W], a[y*W:])
			}
		}
		if got, want := SSIM(a, b, W, H), ssimRef(a, b, W, H); !sameFloat(got, want) {
			t.Fatalf("%dx%d: SSIM = %v, reference %v", W, H, got, want)
		}
		if got, want := PSNR(a, b), psnrRef(a, b); !sameFloat(got, want) {
			t.Fatalf("%dx%d: PSNR = %v, reference %v", W, H, got, want)
		}
	})
}

// damaged returns an SD- or HD-sized plane pair that differs in every
// pixel, so no row of windows takes the clean-row shortcut.
func damaged(w, h int) (ref, deg []uint8) {
	rng := sim.NewRNG(13, "ssim-damaged")
	ref, deg = make([]uint8, w*h), make([]uint8, w*h)
	for i := range ref {
		ref[i] = uint8(rng.IntN(256))
		deg[i] = ref[i] ^ 0x40
	}
	return ref, deg
}

// TestSSIMAllocs: SSIM runs once per impaired frame, so it keeps its
// block rows on the stack at SD and HD and allocates nothing.
func TestSSIMAllocs(t *testing.T) {
	for _, dim := range [][2]int{{128, 96}, {192, 144}} {
		ref, deg := damaged(dim[0], dim[1])
		if n := testing.AllocsPerRun(20, func() { SSIM(ref, deg, dim[0], dim[1]) }); n != 0 {
			t.Errorf("%dx%d: SSIM allocates %v times a call, want 0", dim[0], dim[1], n)
		}
	}
}

func BenchmarkSSIM(b *testing.B) {
	for _, dim := range []struct {
		name string
		w, h int
	}{{"SD", 128, 96}, {"HD", 192, 144}} {
		ref, deg := damaged(dim.w, dim.h)
		b.Run(dim.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				SSIM(ref, deg, dim.w, dim.h)
			}
		})
	}
}
