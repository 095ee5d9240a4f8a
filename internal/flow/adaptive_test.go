package flow

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/layout"
	"cfaopc/internal/quarantine"
	"cfaopc/internal/wcache"
)

// adaptiveLayout is crafted to exercise every classification the plan
// makes on a 256-grid / 32-core / 12-halo tiling (8×8 cells, 4 nm/px):
// a dense block over cell (1,1) splits, a 2×2-px speck in cell (5,5)
// makes its 2×2 block a non-empty merge, and the untouched blocks merge
// as provably-empty skips.
func adaptiveLayout() *layout.Layout {
	return &layout.Layout{
		Name:   "adaptive",
		TileNM: 1024,
		Rects: []layout.Rect{
			{X: 112, Y: 112, W: 160, H: 160}, // floods cell (1,1)'s window: splits
			{X: 700, Y: 700, W: 8, H: 8},     // speck in cell (5,5): sparse merge
		},
	}
}

func adaptiveConfig() Config {
	cfg := cacheConfig() // 32-core rule-engine tiling
	// Halo 12, not 8: the split sub-window is then 40 px (160 nm), which
	// the default optics can build kernels for — 32 px (128 nm) lands on
	// a pupil-sampling null and litho.New rejects it.
	cfg.HaloPx = 12
	cfg.AdaptiveTiles = true
	return cfg
}

// TestPlanTilesUniform pins the uniform plan to the historical row-major
// CorePx grid: indices, origins, and uniform core/window edges.
func TestPlanTilesUniform(t *testing.T) {
	cfg := testConfig() // 256 grid, 128 core, 32 halo → 2×2
	ix := layout.NewWindowIndex(bigLayout(), cfg.GridN)
	p := planTiles(cfg, ix)
	want := []tileJob{
		{index: 0, cx: 0, cy: 0, core: 128, window: 192},
		{index: 1, cx: 128, cy: 0, core: 128, window: 192},
		{index: 2, cx: 0, cy: 128, core: 128, window: 192},
		{index: 3, cx: 128, cy: 128, core: 128, window: 192},
	}
	if !reflect.DeepEqual(p.jobs, want) {
		t.Fatalf("uniform plan = %+v, want %+v", p.jobs, want)
	}
	if p.merged != 0 || p.split != 0 || p.skipped != 0 {
		t.Fatalf("uniform plan recorded adaptive activity: %+v", p)
	}
	if !reflect.DeepEqual(p.perRow, []int{2, 2}) || len(p.sizes) != 1 || p.sizes[0] != 192 {
		t.Fatalf("uniform plan bookkeeping: perRow=%v sizes=%v", p.perRow, p.sizes)
	}
}

// TestAdaptivePlanClassifiesAndPartitions drives the adaptive planner
// over the crafted layout: the plan is deterministic, classifies every
// region as designed, stays sorted in journal order, and its cores
// partition the grid — every pixel owned by exactly one tile, the
// invariant stitching correctness rests on.
func TestAdaptivePlanClassifiesAndPartitions(t *testing.T) {
	cfg := adaptiveConfig()
	ix := layout.NewWindowIndex(adaptiveLayout(), cfg.GridN)
	p := planTiles(cfg, ix)
	p2 := planTiles(cfg, ix)
	if !reflect.DeepEqual(p.jobs, p2.jobs) {
		t.Fatal("adaptive plan is not deterministic")
	}
	if p.merged == 0 || p.split == 0 || p.skipped == 0 {
		t.Fatalf("plan classified merged=%d split=%d skipped=%d; the crafted layout should hit all three", p.merged, p.split, p.skipped)
	}
	var mergedLive, skips int
	for _, j := range p.jobs {
		if j.core == 2*cfg.CorePx && !j.skip {
			mergedLive++
		}
		if j.skip {
			skips++
		}
	}
	if mergedLive == 0 {
		t.Fatal("no live (non-skip) merged tile; the speck block should merge without skipping")
	}
	if skips != p.skipped {
		t.Fatalf("%d skip jobs vs %d counted", skips, p.skipped)
	}

	for i, j := range p.jobs {
		if j.index != i {
			t.Fatalf("job %d carries index %d; indices must be journal keys in sorted order", i, j.index)
		}
		if i > 0 {
			prev := p.jobs[i-1]
			if j.cy < prev.cy || (j.cy == prev.cy && j.cx <= prev.cx) {
				t.Fatalf("jobs not sorted by (cy, cx): %+v after %+v", j, prev)
			}
		}
		if j.window != j.core+2*cfg.HaloPx {
			t.Fatalf("job %d window %d != core %d + 2·halo", i, j.window, j.core)
		}
	}

	owners := make([]int, cfg.GridN*cfg.GridN)
	for _, j := range p.jobs {
		for y := j.cy; y < j.cy+j.core && y < cfg.GridN; y++ {
			for x := j.cx; x < j.cx+j.core && x < cfg.GridN; x++ {
				owners[y*cfg.GridN+x]++
			}
		}
	}
	for i, n := range owners {
		if n != 1 {
			t.Fatalf("pixel (%d,%d) owned by %d cores, want exactly 1", i%cfg.GridN, i/cfg.GridN, n)
		}
	}

	// Skip tiles are provably empty: their windows hold no occupancy.
	for _, j := range p.jobs {
		if j.skip {
			if occ := ix.Occupancy(j.cx-cfg.HaloPx, j.cy-cfg.HaloPx, j.window, j.window); occ != 0 {
				t.Fatalf("skip tile at (%d,%d) has occupancy %d", j.cx, j.cy, occ)
			}
		}
	}
}

// TestAdaptiveThresholdValidation rejects out-of-range adaptive knobs.
func TestAdaptiveThresholdValidation(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.AdaptiveMergeMax = 1.5
	if _, err := Run(adaptiveLayout(), cfg); err == nil {
		t.Error("merge threshold > 1 accepted")
	}
	cfg = adaptiveConfig()
	cfg.AdaptiveSplitMin = -0.1
	if _, err := Run(adaptiveLayout(), cfg); err == nil {
		t.Error("negative split threshold accepted")
	}
}

// TestAdaptiveRunDeterminismAndStreaming is the adaptive analogue of
// the core determinism contract: serial, parallel, and proc-mode
// adaptive runs produce byte-identical shots and stats, streamed bands
// reassemble to exactly the dense mask even with merged tiles spanning
// two band rows, and skip tiles contribute nothing without ever
// rasterizing.
func TestAdaptiveRunDeterminismAndStreaming(t *testing.T) {
	l := adaptiveLayout()
	mk := func(w MaskWriter) Config {
		cfg := adaptiveConfig()
		cfg.MaskWriter = w
		return cfg
	}

	refColl := NewMaskCollector(testConfig().GridN)
	refCfg := mk(refColl)
	refCfg.TileWorkers = 1
	ref, err := Run(l, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Shots) == 0 {
		t.Fatal("no shots")
	}
	if ref.Merged == 0 || ref.Split == 0 || ref.Skipped == 0 {
		t.Fatalf("run summary merged=%d split=%d skipped=%d", ref.Merged, ref.Split, ref.Skipped)
	}
	if ref.Mask.SqDiff(refColl.Mask) != 0 {
		t.Fatal("adaptive streamed bands differ from the dense mask")
	}
	for _, st := range ref.TileStats {
		if st.Core == 0 || st.Window == 0 {
			t.Fatalf("stat %d missing geometry: %+v", st.Index, st)
		}
		skip := st.RasterWall == 0 && !st.Occupied && st.Attempts == 0
		if st.Shots != 0 && skip {
			t.Fatalf("skip tile %d produced shots", st.Index)
		}
	}

	parColl := NewMaskCollector(testConfig().GridN)
	parCfg := mk(parColl)
	parCfg.TileWorkers = 8
	par, err := Run(l, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, par, ref)
	if parColl.Mask.SqDiff(refColl.Mask) != 0 {
		t.Fatal("parallel adaptive bands differ from serial")
	}

	procColl := NewMaskCollector(testConfig().GridN)
	procCfg := mk(procColl)
	procCfg.Engines = quarantine.EngineMeta{Primary: "rule", Fallback: "rule"}
	procCfg.ProcWorkers = 4
	procCfg.WorkerCmd = testWorkerCmd(t)
	proc, err := Run(l, procCfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, proc, ref)
	if procColl.Mask.SqDiff(refColl.Mask) != 0 {
		t.Fatal("proc adaptive bands differ from serial")
	}
}

// TestAdaptiveCacheCompose runs the tentpole pair together on the
// repeated-cell array: adaptive planning plus the dedup cache, still
// byte-identical to the adaptive uncached run, with the dense cells
// deduplicating across the array.
func TestAdaptiveCacheCompose(t *testing.T) {
	l := arrayLayout()
	cfg := adaptiveConfig()
	cfg.TileWorkers = 1
	ref, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg = adaptiveConfig()
	cfg.TileWorkers = 1
	cfg.Cache = mustCache(t, wcache.Config{})
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Fatal("adaptive cached run recorded no hits over a repeated-cell array")
	}
	sameResult(t, res, ref)
}

// TestAdaptiveCheckpointBinding: the adaptive knobs are part of the
// journal fingerprint, so a uniform-mode journal cannot silently resume
// an adaptive run (the tile indices mean different windows).
func TestAdaptiveCheckpointBinding(t *testing.T) {
	l := adaptiveLayout()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := adaptiveConfig()
	cfg.AdaptiveTiles = false
	cfg.CheckpointPath = ckpt
	if _, err := Run(l, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.AdaptiveTiles = true
	if _, err := Run(l, cfg); !errors.Is(err, checkpoint.ErrHeaderMismatch) {
		t.Fatalf("err = %v, want ErrHeaderMismatch", err)
	}
	cfg.AdaptiveTiles = false
	cfg.AdaptiveSplitMin = 0.5 // threshold change alone rebinds too
	if _, err := Run(l, cfg); !errors.Is(err, checkpoint.ErrHeaderMismatch) {
		t.Fatalf("threshold-changed err = %v, want ErrHeaderMismatch", err)
	}
}
