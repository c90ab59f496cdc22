package video

import (
	"math"
	"testing"
	"time"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/testbed"
)

// decodeRef is the decode-and-score loop finish ran before it learned
// that an undamaged frame is the reference itself: every frame is
// assembled slice by slice into its own buffer and scored in full. Kept
// as the reference finish is held bit-equal against.
func decodeRef(src *Source, gotSlice [][]bool) (meanSSIM, meanPSNR float64, impairedFrames int) {
	p := src.Profile
	n := src.Frames()
	prev := make([]uint8, p.W*p.H)
	copy(prev, src.Frame(0))
	corrupt := make([]bool, p.Slices)
	decoded := make([]uint8, p.W*p.H)
	var ssimSum, psnrSum float64
	for t := 0; t < n; t++ {
		ref := src.Frame(t)
		isI := t%p.GOP == 0
		impaired := false
		for s := 0; s < p.Slices; s++ {
			if gotSlice[t][s] && (isI || !corrupt[s]) {
				corrupt[s] = false
			} else {
				corrupt[s] = true
			}
			lo, hi := sliceRows(p, s)
			if corrupt[s] {
				impaired = true
				copy(decoded[lo*p.W:hi*p.W], prev[lo*p.W:hi*p.W])
			} else {
				copy(decoded[lo*p.W:hi*p.W], ref[lo*p.W:hi*p.W])
			}
		}
		if impaired {
			impairedFrames++
		}
		ssimSum += qoe.SSIM(ref, decoded, p.W, p.H)
		pn := qoe.PSNR(ref, decoded)
		if pn > 60 {
			pn = 60
		}
		psnrSum += pn
		prev, decoded = decoded, prev
	}
	return ssimSum / float64(n), psnrSum / float64(n), impairedFrames
}

// TestFinishMatchesFullDecode streams over an idle link, then knocks
// random slices out of the receiver's record — from none to nearly
// all, so runs of clean frames, damage that propagates to the next
// I-frame and back-to-back damaged frames all occur — and holds the
// stream's scores bit-equal to the full decode of the same record.
func TestFinishMatchesFullDecode(t *testing.T) {
	rng := sim.NewRNG(9, "slice-loss")
	tiny := Profile{Name: "tiny", W: 6, H: 6, Bitrate: 1e6, FPS: 25, GOP: 5, Slices: 3} // unscorable: SSIM is NaN
	sd, hd := SD, HD
	sd.GOP, hd.GOP = 10, 10 // three I-frames in a one-second clip
	for _, p := range []Profile{sd, hd, tiny} {
		src := NewSource(ClipC, p, 1)
		for _, lossShare := range []float64{0, 0.005, 0.3, 0.95} {
			a := testbed.NewAccess(testbed.Config{BufferDown: 256, Seed: 4})
			var res *Result
			st := Start(a.MediaServer, a.MediaClient, src, Config{Smooth: true, Seed: 4}, func(r Result) { res = &r })
			a.Eng.RunFor(time.Second + StartupDelay) // every packet has arrived; finish has not run
			for _, frame := range st.gotSlice {
				for s := range frame {
					if !frame[s] {
						t.Fatalf("%s: idle link lost a slice", p.Name)
					}
					frame[s] = rng.Float64() >= lossShare
				}
			}
			a.Eng.RunFor(10 * time.Second)
			if res == nil {
				t.Fatal("stream never finished")
			}
			ssim, psnr, impaired := decodeRef(src, st.gotSlice)
			if math.Float64bits(res.MeanSSIM) != math.Float64bits(ssim) ||
				math.Float64bits(res.MeanPSNR) != math.Float64bits(psnr) ||
				res.FramesImpaired != impaired {
				t.Errorf("%s loss %g: finish scored SSIM %v PSNR %v impaired %d, full decode %v %v %d",
					p.Name, lossShare, res.MeanSSIM, res.MeanPSNR, res.FramesImpaired, ssim, psnr, impaired)
			}
			if lossShare == 0 && p.W >= 8 && (res.MeanSSIM != 1 || res.MeanPSNR != 60) {
				t.Errorf("%s undamaged: SSIM %v PSNR %v, want exactly 1 and 60", p.Name, res.MeanSSIM, res.MeanPSNR)
			}
		}
	}
}
