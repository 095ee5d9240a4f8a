package bench

import (
	"fmt"
	"time"

	"cfaopc/internal/flow"
	"cfaopc/internal/geom"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
)

// FlowOptions configures the tiled full-chip exhibit.
type FlowOptions struct {
	CorePx      int   // core px owned per window
	HaloPx      int   // halo context px around each core
	Iters       int   // CircleOpt stage-2 iterations per window
	InitIters   int   // CircleOpt stage-1 MOSAIC iterations per window
	Seed        int64 // random full-chip layout seed
	Features    int   // bars in the random layout
	TileWorkers []int // worker counts to sweep (first entry is the baseline)
}

// DefaultFlowOptions sizes a 2×2-core sweep over the runner's grid.
func DefaultFlowOptions(gridN int) FlowOptions {
	return FlowOptions{
		CorePx:      gridN / 2,
		HaloPx:      gridN / 16,
		Iters:       20,
		InitIters:   8,
		Seed:        7,
		Features:    8,
		TileWorkers: []int{1, 2, 4},
	}
}

// FlowTable runs the halo-and-stitch flow over a random full-chip layout
// at each tile-worker count and reports per-run wall time, speedup over
// the first (baseline) count, the per-tile occupancy profile, and whether
// the stitched shot list is identical to the baseline — the determinism
// contract made observable.
func (r *Runner) FlowTable(o FlowOptions) (*Table, error) {
	l := layout.GenerateRandom(o.Seed, layout.RandomConfig{Features: o.Features})
	t := &Table{
		Title:  fmt.Sprintf("Tiled flow: %s, grid %d, core %d, halo %d", l.Name, r.Opt.GridN, o.CorePx, o.HaloPx),
		Header: []string{"tile-workers", "mask", "tiles", "occupied", "shots", "wall", "speedup", "peak-mem", "identical"},
	}
	// Warm the kernel cache so the first swept count is not charged the
	// one-time SOCS decomposition.
	window := o.CorePx + 2*o.HaloPx
	warmCfg := optics.Default()
	warmCfg.TileNM = float64(window) * float64(l.TileNM) / float64(r.Opt.GridN)
	if _, err := litho.New(warmCfg, window); err != nil {
		return nil, err
	}
	var base *flow.Result
	var baseWall time.Duration
	// Each worker count runs streamed (shot list only) and the baseline
	// count additionally runs with the dense mask kept, so the peak-mem
	// column shows the O(window²) vs O(GridN²) gap the streaming path
	// removes.
	type variant struct {
		tw       int
		keepMask bool
	}
	variants := make([]variant, 0, len(o.TileWorkers)+1)
	for _, tw := range o.TileWorkers {
		variants = append(variants, variant{tw: tw})
	}
	if len(o.TileWorkers) > 0 {
		variants = append(variants, variant{tw: o.TileWorkers[0], keepMask: true})
	}
	for _, v := range variants {
		fCfg := flow.Config{
			GridN:  r.Opt.GridN,
			CorePx: o.CorePx,
			HaloPx: o.HaloPx,
			Optics: optics.Default(),
			KOpt:   r.Opt.KOpt,
			// Per-kernel parallelism stays serial so the sweep isolates
			// tile-level scaling.
			Workers:     1,
			TileWorkers: v.tw,
			Engines:     exhibitEngines(o.InitIters, o.Iters, ""),
			KeepMask:    v.keepMask,
		}
		start := time.Now()
		res, err := flow.Run(l, fCfg)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		occupied := 0
		for _, ts := range res.TileStats {
			if ts.Occupied {
				occupied++
			}
		}
		identical := "baseline"
		if base == nil {
			base, baseWall = res, wall
		} else {
			identical = "yes"
			if !sameShots(base.Shots, res.Shots) {
				identical = "NO"
			}
		}
		maskCol := "streamed"
		if v.keepMask {
			maskCol = "dense"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", v.tw),
			maskCol,
			fmt.Sprintf("%d", res.Tiles),
			fmt.Sprintf("%d", occupied),
			fmt.Sprintf("%d", len(res.Shots)),
			wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(baseWall)/float64(wall)),
			fmtBytes(res.PeakBytes),
			identical,
		})
	}
	return t, nil
}

// fmtBytes renders a byte count as a compact human-readable figure.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// sameShots reports byte-identical shot lists.
func sameShots(a, b []geom.Circle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
