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
	// The squared error is an integer below 2^53 for any plane of fewer
	// than 2^37 pixels, so this is the float sum exactly.
	var se int64
	for i := range ref {
		d := int64(ref[i]) - int64(deg[i])
		se += d * d
	}
	mse := float64(se) / float64(len(ref))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// moments are the integer sums of one 4x4 block of a reference (a) and
// a degraded (b) plane: Σa, Σb, Σa², Σb² and Σab.
type moments struct{ a, b, aa, bb, ab int }

// blockRow sums the moments of the 4x4 blocks of pixel rows
// [y, y+4) into m, one per block column.
func blockRow(m []moments, ref, deg []uint8, w, y int) {
	clear(m)
	for j := y; j < y+4; j++ {
		ra, rb := ref[j*w:(j+1)*w], deg[j*w:(j+1)*w]
		for k := range m {
			s := &m[k]
			pa, pb := ra[4*k:4*k+4], rb[4*k:4*k+4]
			for i := range pa {
				a, b := int(pa[i]), int(pb[i])
				s.a += a
				s.b += b
				s.aa += a * a
				s.bb += b * b
				s.ab += a * b
			}
		}
	}
}

// ssimStackBlocks is the widest block row SSIM keeps on the stack: 64
// blocks, a 256-pixel plane (SD is 32 blocks wide, HD 48).
const ssimStackBlocks = 64

// SSIM computes the mean structural similarity index (Wang, Bovik,
// Sheikh, Simoncelli 2004) between two 8-bit luma planes of
// dimensions w x h, using 8x8 windows with stride 4.
//
// A window's moments are the integer sums of the four 4x4 blocks it
// covers, each block summed once. The variances and the covariance
// come from them as (4096·Σab − 64·Σa·Σb)/4096 — Σ(a−ma)(b−mb), the
// sum the per-pixel form accumulates in floats. That form is exact
// too: every deviation is a multiple of 1/64, every product and
// partial sum a multiple of 2⁻¹² below 2²², within 34 bits, so both
// forms give the same doubles, signs of zero included.
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
	n := float64(win * win)
	// top and bot are the block rows under the upper and lower half of
	// the current row of windows; top is valid for block row have.
	nb := w / stride
	var stack [2][ssimStackBlocks]moments
	var top, bot []moments
	if nb <= ssimStackBlocks {
		top, bot = stack[0][:nb], stack[1][:nb]
	} else {
		top, bot = make([]moments, nb), make([]moments, nb)
	}
	have := -1
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
		if have != y {
			blockRow(top, ref, deg, w, y)
		}
		blockRow(bot, ref, deg, w, y+stride)
		for k := 0; k+1 < len(top); k++ {
			t0, t1, b0, b1 := &top[k], &top[k+1], &bot[k], &bot[k+1]
			sa := t0.a + t1.a + b0.a + b1.a
			sb := t0.b + t1.b + b0.b + b1.b
			saa := t0.aa + t1.aa + b0.aa + b1.aa
			sbb := t0.bb + t1.bb + b0.bb + b1.bb
			sab := t0.ab + t1.ab + b0.ab + b1.ab
			ma := float64(sa) / n
			mb := float64(sb) / n
			va := float64(4096*saa-64*sa*sa) / 4096
			vb := float64(4096*sbb-64*sb*sb) / 4096
			cov := float64(4096*sab-64*sa*sb) / 4096
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
		top, bot = bot, top
		have = y + stride
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
