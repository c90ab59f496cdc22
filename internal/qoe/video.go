package qoe

import (
	"bytes"
	"math"
)

// PSNR computes the peak signal-to-noise ratio in dB between two
// 8-bit luma planes of equal size. Identical frames return +Inf.
func PSNR(ref, deg []uint8) float64 {
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

// SSIM computes the mean structural similarity index (Wang, Bovik,
// Sheikh, Simoncelli 2004) between two 8-bit luma planes of
// dimensions w x h, using 8x8 windows with stride 4.
func SSIM(ref, deg []uint8, w, h int) float64 {
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
		if bytes.Equal(ref[y*w:(y+win)*w], deg[y*w:(y+win)*w]) {
			// A row of windows over undamaged rows (every slice the
			// decoder copied from the reference): with deg == ref the
			// means, variances and covariance coincide, numerator and
			// denominator below are the same float, and each window
			// adds exactly 1 — added here in the same order.
			for x := 0; x+win <= w; x += stride {
				sum++
				count++
			}
			continue
		}
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
			// The float64 conversions forbid fusing these products into
			// the adds (a no-op on amd64, which never fuses), so identical
			// windows score exactly 1 on every architecture.
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

// SSIMToMOS maps an SSIM score to a 5-point MOS, piecewise-linear
// through the anchor points of the scalable-video mapping of Zinner
// et al. ([49] in the paper): pristine video (SSIM ~1) is excellent
// and quality falls off steeply below ~0.9.
func SSIMToMOS(ssim float64) float64 {
	anchors := []struct{ s, mos float64 }{
		{0.00, 1.0},
		{0.60, 1.0},
		{0.70, 1.5},
		{0.80, 2.2},
		{0.88, 3.0},
		{0.95, 4.0},
		{0.99, 4.8},
		{1.00, 5.0},
	}
	return interpolate(ssim, anchors)
}

// PSNRToMOS maps PSNR (dB) to a 5-point MOS using the conventional
// thresholds (>=37 dB excellent, <20 dB bad).
func PSNRToMOS(psnr float64) float64 {
	if math.IsInf(psnr, 1) {
		return 5
	}
	anchors := []struct{ s, mos float64 }{
		{0, 1.0},
		{20, 1.0},
		{25, 2.0},
		{31, 3.0},
		{37, 4.0},
		{45, 5.0},
	}
	return interpolate(psnr, anchors)
}

func interpolate(x float64, anchors []struct{ s, mos float64 }) float64 {
	if x <= anchors[0].s {
		return anchors[0].mos
	}
	for i := 1; i < len(anchors); i++ {
		if x <= anchors[i].s {
			a, b := anchors[i-1], anchors[i]
			frac := (x - a.s) / (b.s - a.s)
			return a.mos + frac*(b.mos-a.mos)
		}
	}
	return anchors[len(anchors)-1].mos
}
