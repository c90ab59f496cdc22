// Package media provides the audio substrate for the VoIP study:
// synthetic speech-like PCM signals (standing in for the 20 ITU-T
// P.862 Dutch reference samples, which are not redistributable), and a
// real G.711 A-law (PCMA) codec as used by the paper's PjSIP calls.
package media

import "math"

// G.711 A-law companding constants.
const alawA = 87.6

var alawDenom = 1 + math.Log(alawA)

// ALawEncode compresses a sample in [-1, 1] to an 8-bit A-law code
// point (represented as a byte).
func ALawEncode(x float64) byte {
	sign := byte(0x80)
	if x < 0 {
		sign = 0
		x = -x
	}
	if x > 1 {
		x = 1
	}
	var y float64
	if x < 1/alawA {
		y = alawA * x / alawDenom
	} else {
		y = (1 + math.Log(alawA*x)) / alawDenom
	}
	q := byte(y*127 + 0.5)
	return sign | q
}

// alawTable holds ALawDecode's value for every code point, expanded
// once: decoding is a load, not a log-domain exp per sample.
var alawTable = func() (t [256]float64) {
	for b := range t {
		t[b] = alawExpand(byte(b))
	}
	return t
}()

// ALawDecode expands an 8-bit A-law code point back to [-1, 1].
func ALawDecode(b byte) float64 { return alawTable[b] }

// alawExpand is the A-law expansion alawTable is built from.
func alawExpand(b byte) float64 {
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

// ALawRoundTrip quantizes a whole signal through the codec in place
// and returns it, modeling the (slight) G.711 quantization distortion
// of the paper's PCMA encoding.
func ALawRoundTrip(pcm []float64) []float64 {
	for i, x := range pcm {
		pcm[i] = ALawDecode(ALawEncode(x))
	}
	return pcm
}
