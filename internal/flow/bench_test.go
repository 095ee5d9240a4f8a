package flow

import (
	"testing"

	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/quarantine"
)

// benchFlowConfig sizes a 1024² chip in 8×8 tiles of 128-px cores with a
// cheap deterministic rule optimizer, so the benchmark measures the
// flow's own memory behavior, not CircleOpt's.
func benchFlowConfig(l *layout.Layout, gridN int, keepMask bool) Config {
	return Config{
		GridN:    gridN,
		CorePx:   128,
		HaloPx:   32,
		Optics:   optics.Default(),
		KOpt:     2,
		Engines:  quarantine.EngineMeta{Primary: "rule"},
		KeepMask: keepMask,
	}
}

// runFlowBenchmark reports allocations plus the flow's own peak-resident
// estimate per tile, the figure that must scale with the window size (and
// not GridN²) on the streaming path.
func runFlowBenchmark(b *testing.B, keepMask bool) {
	const gridN = 1024
	l := layout.GenerateRandom(7, layout.RandomConfig{Features: 16, MarginNM: 128})
	cfg := benchFlowConfig(l, gridN, keepMask)
	// Warm the kernel cache outside the timed region.
	if _, err := Run(l, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var peak int64
	tiles := 1
	for i := 0; i < b.N; i++ {
		res, err := Run(l, cfg)
		if err != nil {
			b.Fatal(err)
		}
		peak = res.PeakBytes
		tiles = res.Tiles
	}
	b.ReportMetric(float64(peak)/float64(tiles), "peak-bytes/tile")
	b.ReportMetric(float64(peak), "peak-bytes")
}

// BenchmarkFlowRunStreaming is the memory-bounded path: shot list only,
// no dense grid anywhere. Compare its peak-bytes metric against
// BenchmarkFlowRunFullMask — the gap is the GridN² term streaming drops.
func BenchmarkFlowRunStreaming(b *testing.B) { runFlowBenchmark(b, false) }

// BenchmarkFlowRunFullMask opts back into the dense stitched mask, the
// pre-streaming behavior.
func BenchmarkFlowRunFullMask(b *testing.B) { runFlowBenchmark(b, true) }
