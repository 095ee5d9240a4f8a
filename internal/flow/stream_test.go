package flow

import (
	"fmt"
	"testing"

	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/quarantine"
)

// referenceFullGridRun replays the pre-streaming flow exactly for the
// "rule" test engine: rasterize the entire chip, extract every halo
// window out of the dense grid, fracture it, and keep core-owned shots
// in row-major order. It is the oracle the streaming path must match
// byte for byte. It builds no simulator: the window pitch is computed
// exactly as litho.New derives it from the window's optics.
func referenceFullGridRun(l *layout.Layout, cfg Config) ([]geom.Circle, *grid.Real) {
	full := l.Rasterize(cfg.GridN)
	window := cfg.CorePx + 2*cfg.HaloPx
	dx := float64(window) * (float64(l.TileNM) / float64(cfg.GridN)) / float64(window)
	var shots []geom.Circle
	for cy := 0; cy < cfg.GridN; cy += cfg.CorePx {
		for cx := 0; cx < cfg.GridN; cx += cfg.CorePx {
			ox, oy := cx-cfg.HaloPx, cy-cfg.HaloPx
			target, occupied := extractWindow(full, ox, oy, window)
			if !occupied {
				continue
			}
			ws := fracture.CircleRule(target, fracture.DefaultCircleRuleConfig(dx))
			shots = append(shots, ownedShots(ws, ox, oy, cx, cy, cfg.CorePx)...)
		}
	}
	return shots, geom.RasterizeCircles(cfg.GridN, cfg.GridN, shots)
}

// TestStreamingEquivalenceFullGrid is the acceptance property of the
// streaming refactor: over randomized layouts, even and uneven tilings,
// bounded and unbounded shot radii, and TileWorkers ∈ {1, 8}, the
// streamed flow's shots, dense mask and band-assembled mask are all
// byte-identical to the full-grid reference. Run it under -race: band
// emission happens concurrently with tile workers.
func TestStreamingEquivalenceFullGrid(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		gridN  int
		corePx int
		haloPx int
		rMaxPx float64 // > 0 streams bands mid-run; 0 defers to finish
	}{
		{name: "even 2x2", seed: 1, gridN: 128, corePx: 64, haloPx: 8, rMaxPx: 0},
		{name: "uneven 3x3 bounded", seed: 2, gridN: 256, corePx: 96, haloPx: 16, rMaxPx: 40},
		{name: "many tiles bounded", seed: 3, gridN: 256, corePx: 32, haloPx: 8, rMaxPx: 20},
		{name: "single core column", seed: 4, gridN: 160, corePx: 150, haloPx: 5, rMaxPx: 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l := layout.GenerateRandom(tc.seed, layout.RandomConfig{
				TileNM: 2048, Features: 7, MarginNM: 128,
			})
			mk := func(workers int, w MaskWriter) Config {
				return Config{
					GridN:       tc.gridN,
					CorePx:      tc.corePx,
					HaloPx:      tc.haloPx,
					Optics:      optics.Default(),
					KOpt:        2,
					TileWorkers: workers,
					Engines:     quarantine.EngineMeta{Primary: "rule"},
					RMaxPx:      tc.rMaxPx,
					KeepMask:    true,
					MaskWriter:  w,
				}
			}
			wantShots, wantMask := referenceFullGridRun(l, mk(1, nil))
			if len(wantShots) == 0 {
				t.Fatal("reference run produced no shots")
			}
			for _, workers := range []int{1, 8} {
				coll := NewMaskCollector(tc.gridN)
				res, err := Run(l, mk(workers, coll))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Shots) != len(wantShots) {
					t.Fatalf("workers=%d: %d shots vs reference %d", workers, len(res.Shots), len(wantShots))
				}
				for i := range res.Shots {
					if res.Shots[i] != wantShots[i] {
						t.Fatalf("workers=%d: shot %d = %+v, reference %+v", workers, i, res.Shots[i], wantShots[i])
					}
				}
				if res.Mask.SqDiff(wantMask) != 0 {
					t.Fatalf("workers=%d: dense mask differs from full-grid reference", workers)
				}
				if coll.Mask.SqDiff(wantMask) != 0 {
					t.Fatalf("workers=%d: band-assembled mask differs from full-grid reference", workers)
				}
				if res.PeakBytes <= 0 {
					t.Fatalf("workers=%d: PeakBytes = %d", workers, res.PeakBytes)
				}
			}
		})
	}
}

// TestStreamingDropsDenseMask pins the memory contract: without
// KeepMask the result holds no dense grid, and the peak estimate scales
// with the window, not the chip.
func TestStreamingDropsDenseMask(t *testing.T) {
	l := layout.GenerateRandom(5, layout.RandomConfig{Features: 6, MarginNM: 128})
	const gridN = 512
	cfg := Config{
		GridN:   gridN,
		CorePx:  64,
		HaloPx:  16,
		Optics:  optics.Default(),
		KOpt:    2,
		Engines: quarantine.EngineMeta{Primary: "rule"},
	}
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mask != nil {
		t.Fatal("streamed run materialized a dense mask")
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}
	denseBytes := int64(gridN) * int64(gridN) * 8
	if res.PeakBytes >= denseBytes {
		t.Fatalf("peak %d bytes not below the dense-grid bar %d", res.PeakBytes, denseBytes)
	}
	for _, ts := range res.TileStats {
		if ts.Occupied && ts.RasterWall < 0 {
			t.Fatalf("tile %d negative raster wall", ts.Index)
		}
	}
	cfg.KeepMask = true
	kept, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Mask == nil {
		t.Fatal("KeepMask run did not materialize the mask")
	}
	if kept.PeakBytes <= res.PeakBytes+denseBytes-1 {
		t.Fatalf("KeepMask peak %d does not carry the dense-grid term over streamed peak %d", kept.PeakBytes, res.PeakBytes)
	}
}

// failingWriter rejects every band, to prove writer errors surface as
// run errors instead of vanishing in a worker goroutine.
type failingWriter struct{}

func (failingWriter) WriteBand(int, *grid.Real) error { return fmt.Errorf("disk full") }

func TestMaskWriterErrorSurfaces(t *testing.T) {
	l := bigLayout()
	cfg := testConfig()
	cfg.Engines = quarantine.EngineMeta{Primary: "rule"}
	cfg.MaskWriter = failingWriter{}
	if _, err := Run(l, cfg); err == nil {
		t.Fatal("writer error did not fail the run")
	}
}

// TestBandAssemblerOrderAndReach drives the assembler directly:
// completions arrive in adversarial order, bands must come out
// top-to-bottom exactly once, and with a radius bound the early bands
// must be emitted before the bottom rows complete.
func TestBandAssemblerOrderAndReach(t *testing.T) {
	const gridN, corePx, rows, cols = 96, 24, 4, 4
	shotFor := func(row, col int) geom.Circle {
		return geom.Circle{X: float64(col*corePx + 10), Y: float64(row*corePx + 10), R: 6}
	}
	var all []geom.Circle
	type band struct {
		y0   int
		grid *grid.Real
	}
	var got []band
	rec := writerFunc(func(y0 int, g *grid.Real) error {
		got = append(got, band{y0, g.Clone()})
		return nil
	})
	perRow := make([]int, rows)
	for r := range perRow {
		perRow[r] = cols
	}
	a := newBandAssembler(gridN, corePx, perRow, 6, rec)
	// Rows 0-2 complete (out of order) in the first 12 completions; row 3
	// stays outstanding. Reach is int(6/24)+2 = 2 tile rows, so band 0
	// (needing rows 0..2) must stream out before row 3 finishes.
	order := []struct{ row, col int }{
		{2, 2}, {0, 0}, {1, 3}, {0, 1}, {2, 0}, {0, 2}, {1, 0}, {2, 1},
		{0, 3}, {1, 1}, {2, 3}, {1, 2}, {3, 0}, {3, 1}, {3, 2},
	}
	for i, o := range order {
		s := shotFor(o.row, o.col)
		all = append(all, s)
		a.tileDone(o.row, o.row, []geom.Circle{s})
		if i == 11 && len(got) == 0 {
			t.Fatal("no band emitted although rows 0-2 completed under a radius bound")
		}
	}
	a.tileDone(3, 3, []geom.Circle{shotFor(3, 3)})
	all = append(all, shotFor(3, 3))
	if err := a.finish(); err != nil {
		t.Fatal(err)
	}
	if len(got) != rows {
		t.Fatalf("%d bands, want %d", len(got), rows)
	}
	want := geom.RasterizeCircles(gridN, gridN, all)
	for i, b := range got {
		if b.y0 != i*corePx {
			t.Fatalf("band %d at y0=%d, want %d", i, b.y0, i*corePx)
		}
		for y := 0; y < b.grid.H; y++ {
			for x := 0; x < gridN; x++ {
				if b.grid.At(x, y) != want.At(x, b.y0+y) {
					t.Fatalf("band %d pixel (%d, %d) differs from dense rasterization", i, x, y)
				}
			}
		}
	}
}

// writerFunc adapts a function to MaskWriter.
type writerFunc func(int, *grid.Real) error

func (f writerFunc) WriteBand(y0 int, g *grid.Real) error { return f(y0, g) }

// TestMaskCollectorBounds rejects bands that fall outside the mask.
func TestMaskCollectorBounds(t *testing.T) {
	c := NewMaskCollector(32)
	if err := c.WriteBand(0, grid.NewReal(32, 8)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBand(28, grid.NewReal(32, 8)); err == nil {
		t.Fatal("overhanging band accepted")
	}
	if err := c.WriteBand(8, grid.NewReal(16, 8)); err == nil {
		t.Fatal("narrow band accepted")
	}
}
