package video

import (
	"bytes"
	"math"
	"testing"

	"bufferqoe/internal/sim"
)

// renderFrameRef is renderFrame as it was before it tabulated the
// separable sinusoid, drew the texture once a source and boxed the
// blob, kept verbatim as the reference NewSource is held byte-equal to.
func renderFrameRef(c Clip, p Profile, t int) []uint8 {
	out := make([]uint8, p.W*p.H)
	// Global pan in pixels/frame.
	pan := c.Motion * 3 * float64(t)
	// Blob path.
	bx := float64(p.W)/2 + float64(p.W)/3*math.Sin(0.05*float64(t)*(0.5+c.Motion))
	by := float64(p.H)/2 + float64(p.H)/3*math.Cos(0.04*float64(t)*(0.5+c.Motion))
	texRng := sim.NewRNG(c.Seed, "texture")
	// Static texture: a small tileable noise table.
	const texN = 64
	tex := make([]float64, texN*texN)
	for i := range tex {
		tex[i] = texRng.Float64()*2 - 1
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			fx, fy := float64(x), float64(y)
			v := 128.0
			v += 45 * math.Sin(2*math.Pi*(fx+pan)/37) * math.Cos(2*math.Pi*(fy+0.5*pan)/29)
			v += c.Detail * 30 * tex[(y%texN)*texN+x%texN]
			d := math.Hypot(fx-bx, fy-by)
			if d < float64(p.H)/6 {
				v += 70 * (1 - d/(float64(p.H)/6))
			}
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out[y*p.W+x] = uint8(v)
		}
	}
	return out
}

// TestRenderFrameFrozen holds every frame of every clip byte-equal to
// the per-pixel reference, at SD, HD and an odd 13x11 profile, over 40 s
// (2 s in short mode) — long enough for the blob to sweep its whole
// path and the pan to cover many sinusoid periods.
func TestRenderFrameFrozen(t *testing.T) {
	seconds := 40
	if testing.Short() {
		seconds = 2
	}
	odd := Profile{Name: "odd", W: 13, H: 11, Bitrate: 1e6, FPS: 25, GOP: 25, Slices: 3}
	for _, c := range Clips {
		for _, p := range []Profile{SD, HD, odd} {
			t.Run(c.Name+"/"+p.Name, func(t *testing.T) {
				t.Parallel()
				src := NewSource(c, p, seconds)
				for f := 0; f < src.Frames(); f++ {
					if !bytes.Equal(src.Frame(f), renderFrameRef(c, p, f)) {
						t.Fatalf("frame %d differs from the per-pixel reference", f)
					}
				}
			})
		}
	}
}

func BenchmarkNewSource(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewSource(ClipB, SD, 4)
	}
}
