// Benchmarks: one per table and figure of the paper's evaluation,
// plus the ablations. Each benchmark regenerates its artifact on a
// scaled-down grid (short measurement windows, one repetition per
// cell) — the same code path the CLI uses at full scale. Run with:
//
//	go test -bench=. -benchmem
package bufferqoe_test

import (
	"context"
	"testing"
	"time"

	"bufferqoe"
)

// benchOpts shrinks every experiment to benchmark scale.
func benchOpts() bufferqoe.Options {
	return bufferqoe.Options{
		Seed:        42,
		Duration:    3 * time.Second,
		Warmup:      2 * time.Second,
		Reps:        1,
		ClipSeconds: 1,
		CDNFlows:    50000,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := bufferqoe.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Text == "" {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable1 regenerates the workload characterization (measured
// utilization/loss per Table 1 scenario at BDP buffers).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates the buffer-size/queueing-delay table.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig1a regenerates the min/avg/max sRTT PDFs of the CDN
// study.
func BenchmarkFig1a(b *testing.B) { benchExperiment(b, "fig1a") }

// BenchmarkFig1b regenerates the min-vs-max RTT 2D histogram.
func BenchmarkFig1b(b *testing.B) { benchExperiment(b, "fig1b") }

// BenchmarkFig1c regenerates the estimated queueing-delay PDFs by
// access technology.
func BenchmarkFig1c(b *testing.B) { benchExperiment(b, "fig1c") }

// BenchmarkFig4 regenerates all three mean-queueing-delay heatmaps
// (downstream, bidirectional, upstream workloads).
func BenchmarkFig4(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"fig4a", "fig4b", "fig4c"} {
			if _, err := bufferqoe.Run(id, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5 regenerates the link-utilization boxplots.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig7a regenerates the access VoIP heatmap under download
// congestion.
func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }

// BenchmarkFig7b regenerates the access VoIP heatmap under upload
// congestion (the bufferbloat case).
func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") }

// BenchmarkFig7c regenerates the combined up+down VoIP scenario the
// paper describes in §7.2 but does not plot.
func BenchmarkFig7c(b *testing.B) { benchExperiment(b, "fig7c") }

// BenchmarkFig8 regenerates the backbone VoIP heatmap.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9a regenerates the access video heatmap (SD+HD).
func BenchmarkFig9a(b *testing.B) { benchExperiment(b, "fig9a") }

// BenchmarkFig9b regenerates the backbone video heatmap (SD+HD).
func BenchmarkFig9b(b *testing.B) { benchExperiment(b, "fig9b") }

// BenchmarkFig10a regenerates the access WebQoE heatmap under
// download congestion.
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }

// BenchmarkFig10b regenerates the access WebQoE heatmap under upload
// congestion.
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }

// BenchmarkFig10c regenerates the combined up+down WebQoE scenario of
// §9.2 ("not shown" in the paper).
func BenchmarkFig10c(b *testing.B) { benchExperiment(b, "fig10c") }

// BenchmarkFig11 regenerates the backbone WebQoE heatmap.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkAblationAQM swaps CoDel/RED into the bloated uplink.
func BenchmarkAblationAQM(b *testing.B) { benchExperiment(b, "abl-aqm") }

// BenchmarkAblationCC compares Reno vs CUBIC background traffic.
func BenchmarkAblationCC(b *testing.B) { benchExperiment(b, "abl-ccalgo") }

// BenchmarkAblationLoadAware evaluates load-dependent buffer sizing.
func BenchmarkAblationLoadAware(b *testing.B) { benchExperiment(b, "abl-loadaware") }

// BenchmarkAblationSmoothing evaluates video sender smoothing.
func BenchmarkAblationSmoothing(b *testing.B) { benchExperiment(b, "abl-smoothing") }

// BenchmarkAblationPlayout compares fixed vs adaptive jitter buffers.
func BenchmarkAblationPlayout(b *testing.B) { benchExperiment(b, "abl-playout") }

// BenchmarkAblationSACK compares SACK vs NewReno background flows at
// the bloated uplink.
func BenchmarkAblationSACK(b *testing.B) { benchExperiment(b, "abl-sack") }

// BenchmarkExtHTTPVideo runs the Section 10 HTTP-video consistency
// check.
func BenchmarkExtHTTPVideo(b *testing.B) { benchExperiment(b, "ext-httpvideo") }

// BenchmarkExtClips compares the three content classes (Section 8.3).
func BenchmarkExtClips(b *testing.B) { benchExperiment(b, "ext-clips") }

// BenchmarkAblationBIC compares Reno vs BIC vs CUBIC background
// traffic (the paper's full access-era stack list).
func BenchmarkAblationBIC(b *testing.B) { benchExperiment(b, "abl-bic") }

// BenchmarkAblationByteQueue compares packet- vs byte-counted uplink
// buffers.
func BenchmarkAblationByteQueue(b *testing.B) { benchExperiment(b, "abl-bytequeue") }

// BenchmarkAblationECN pairs ECN endpoints with marking CoDel at the
// bloated uplink.
func BenchmarkAblationECN(b *testing.B) { benchExperiment(b, "abl-ecn") }

// BenchmarkAblationIQX rescores the web cells under the exponential
// IQX mapping.
func BenchmarkAblationIQX(b *testing.B) { benchExperiment(b, "abl-iqx") }

// BenchmarkAblationIW10 compares initial windows 3 and 10 (the
// engineering change of paper reference [18]).
func BenchmarkAblationIW10(b *testing.B) { benchExperiment(b, "abl-iw10") }

// BenchmarkExtABR compares DASH adaptation against fixed-rate HTTP
// video across the backbone load ladder.
func BenchmarkExtABR(b *testing.B) { benchExperiment(b, "ext-abr") }

// BenchmarkExtFQCoDelWeb isolates the flow-queueing benefit for a
// thin web flow crossing a congested uplink.
func BenchmarkExtFQCoDelWeb(b *testing.B) { benchExperiment(b, "ext-fqcodel-web") }

// BenchmarkExtJitter sweeps WiFi-like last-hop jitter (the dimension
// the paper's §5.1 excludes).
func BenchmarkExtJitter(b *testing.B) { benchExperiment(b, "ext-jitter") }

// BenchmarkExtParWeb compares the paper's sequential wget fetch with
// a 6-connection browser-style fetch.
func BenchmarkExtParWeb(b *testing.B) { benchExperiment(b, "ext-parweb") }

// BenchmarkExtPSNR verifies the paper's PSNR-similar-to-SSIM omission
// argument.
func BenchmarkExtPSNR(b *testing.B) { benchExperiment(b, "ext-psnr") }

// BenchmarkExtRecovery quantifies the §8.4 ARQ/FEC quality headroom.
func BenchmarkExtRecovery(b *testing.B) { benchExperiment(b, "ext-recovery") }

// BenchmarkRecommendColdBackbone asks one cold sizing question on the
// backbone testbed (Figs. 10-11): the smallest buffer on
// [8, 28, 749, 7490] at which VoIP over short-medium traffic meets the
// MOS floor, at the facade's default run options, on an emptied cache
// each time. With one probe a bisection step leaves all but one worker
// idle unless it measures the next step's candidate beside its own.
func BenchmarkRecommendColdBackbone(b *testing.B) {
	s := bufferqoe.NewSession()
	spec := bufferqoe.RecommendSpec{
		Scenario: bufferqoe.Scenario{Network: bufferqoe.Backbone, Workload: "short-medium"},
		Probes:   []bufferqoe.Probe{{Media: bufferqoe.VoIP}},
		Buffers:  []int{8, 28, 749, 7490},
		Target:   bufferqoe.MinBufferMeetingMOS,
	}
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		rec, err := s.Recommend(context.Background(), spec, bufferqoe.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if rec.CellsEvaluated == 0 {
			b.Fatal("empty recommendation")
		}
	}
}
