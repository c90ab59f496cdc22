// Package video models the paper's IPTV measurement application
// (Section 8): H.264-style slice-structured video streamed over
// RTP/UDP in MPEG2-TS-sized packets, with VLC-style send-rate
// smoothing, a receiver that decodes with previous-frame slice
// concealment, and full-reference SSIM/PSNR evaluation of the decoded
// frames.
//
// Substitution note: the paper's three reference clips (interview,
// soccer, movie) are modeled as procedurally generated luma sequences
// with matching motion/detail classes, at reduced pixel resolution.
// The *network* bitrates stay at the paper's 4 Mbit/s (SD) and
// 8 Mbit/s (HD), so the testbed sees identical traffic; the pixel
// planes only feed the quality metrics, for which slice-loss artifact
// geometry (fraction of frame area frozen, propagation until the next
// I-frame) is what drives SSIM — preserved by the model.
package video

import (
	"fmt"
	"math"

	"bufferqoe/internal/sim"
)

// Profile describes an encoding ladder entry.
type Profile struct {
	Name string
	// W, H are the luma plane dimensions used for quality evaluation.
	W, H int
	// Bitrate is the stream's network bitrate in bits/s.
	Bitrate float64
	// FPS is the frame rate; GOP the I-frame period in frames.
	FPS, GOP int
	// Slices per frame (the paper encodes 32 slices to localize
	// errors).
	Slices int
}

// SD and HD are the paper's two encoding profiles.
var (
	SD = Profile{Name: "SD", W: 128, H: 96, Bitrate: 4e6, FPS: 25, GOP: 25, Slices: 32}
	HD = Profile{Name: "HD", W: 192, H: 144, Bitrate: 8e6, FPS: 25, GOP: 25, Slices: 32}
)

// Clip describes reference content. Motion controls how different
// consecutive frames are (and therefore how visible freeze
// concealment is); Detail controls spatial texture energy.
type Clip struct {
	Name   string
	Motion float64
	Detail float64
	Seed   uint64
}

// The paper's three content classes.
var (
	ClipA = Clip{Name: "A-interview", Motion: 0.2, Detail: 0.5, Seed: 101}
	ClipB = Clip{Name: "B-soccer", Motion: 0.9, Detail: 0.8, Seed: 102}
	ClipC = Clip{Name: "C-movie", Motion: 0.5, Detail: 0.6, Seed: 103}
)

// Clips lists the reference content in paper order.
var Clips = []Clip{ClipA, ClipB, ClipC}

// Source holds the rendered frames of one (clip, profile, length):
// NewSource renders every frame up front, and a session's content
// cache keeps one Source per (clip, profile, seconds) so repeated runs
// don't re-synthesize content.
type Source struct {
	Clip    Clip
	Profile Profile
	frames  [][]uint8
}

// texN is the side of the static texture tile, a power of two.
const texN = 64

// NewSource creates a frame source for the given duration in seconds.
func NewSource(clip Clip, p Profile, seconds int) *Source {
	s := &Source{Clip: clip, Profile: p}
	n := seconds * p.FPS
	s.frames = make([][]uint8, n)
	// Static texture: a small tileable noise table, the same for every
	// frame of the clip.
	texRng := sim.NewRNG(clip.Seed, "texture")
	tex := make([]float64, texN*texN)
	for i := range tex {
		tex[i] = texRng.Float64()*2 - 1
	}
	cols := make([]float64, p.W)
	rows := make([]float64, p.H)
	for t := 0; t < n; t++ {
		s.frames[t] = renderFrame(clip, p, t, tex, cols, rows)
	}
	return s
}

// Frames returns the number of frames.
func (s *Source) Frames() int { return len(s.frames) }

// Frame returns the t-th reference luma plane.
func (s *Source) Frame(t int) []uint8 { return s.frames[t] }

// renderFrame procedurally generates a luma plane: moving sinusoidal
// structure (global pan driven by Motion) over a static texture field
// tex (Detail), with a roaming high-contrast blob standing in for
// foreground objects. cols and rows are scratch of length p.W and p.H.
//
// Every pixel takes the value the per-pixel form 128 + 45*sin(x)*cos(y)
// + texture + blob gives, bit for bit: the sinusoid is separable, so
// its two factors are tabulated once a frame and multiplied in the
// same order, and the blob's distance is only computed inside the box
// where it can fall below the radius — math.Hypot is
// max*sqrt(1+(min/max)^2), never less than either leg.
func renderFrame(c Clip, p Profile, t int, tex, cols, rows []float64) []uint8 {
	out := make([]uint8, p.W*p.H)
	// Global pan in pixels/frame.
	pan := c.Motion * 3 * float64(t)
	// Blob path.
	bx := float64(p.W)/2 + float64(p.W)/3*math.Sin(0.05*float64(t)*(0.5+c.Motion))
	by := float64(p.H)/2 + float64(p.H)/3*math.Cos(0.04*float64(t)*(0.5+c.Motion))
	radius := float64(p.H) / 6
	for x := range cols {
		cols[x] = 45 * math.Sin(2*math.Pi*(float64(x)+pan)/37)
	}
	for y := range rows {
		rows[y] = math.Cos(2 * math.Pi * (float64(y) + 0.5*pan) / 29)
	}
	for y := 0; y < p.H; y++ {
		dy := float64(y) - by
		cy := rows[y]
		trow := tex[(y%texN)*texN : (y%texN+1)*texN]
		line := out[y*p.W : (y+1)*p.W]
		inRows := math.Abs(dy) < radius
		for x := range line {
			dx := float64(x) - bx
			v := 128.0
			v += cols[x] * cy
			v += c.Detail * 30 * trow[x&(texN-1)]
			if inRows && math.Abs(dx) < radius {
				d := math.Hypot(dx, dy)
				if d < radius {
					v += 70 * (1 - d/radius)
				}
			}
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			line[x] = uint8(v)
		}
	}
	return out
}

// sliceRows returns the row range [lo, hi) covered by slice s.
func sliceRows(p Profile, s int) (lo, hi int) {
	lo = s * p.H / p.Slices
	hi = (s + 1) * p.H / p.Slices
	return lo, hi
}

// FrameBytes returns the encoded size of frame t, allocating the GOP
// byte budget with a 3x weight on I-frames and content-dependent
// jitter (encoding-efficiency differences between clips, Section 8.3).
func FrameBytes(c Clip, p Profile, t int, rng *sim.RNG) int {
	gopBytes := p.Bitrate / 8 * float64(p.GOP) / float64(p.FPS)
	unit := gopBytes / float64(3+p.GOP-1)
	base := unit
	if t%p.GOP == 0 {
		base = 3 * unit
	}
	jitter := 1 + (rng.Float64()*2-1)*0.25*c.Detail
	n := int(base * jitter)
	if n < 200 {
		n = 200
	}
	return n
}

// String identifies a source for logs.
func (s *Source) String() string {
	return fmt.Sprintf("%s/%s", s.Clip.Name, s.Profile.Name)
}
