package bench

import (
	"fmt"
	"time"

	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/wcache"
)

// CacheOptions configures the window-dedup cache exhibit.
type CacheOptions struct {
	Rows, Cols int    // repeated-cell array dimensions
	CorePx     int    // core px owned per window (must equal the cell pitch)
	HaloPx     int    // halo context px (must stay under the motif margin)
	Iters      int    // CircleOpt stage-2 iterations per window
	InitIters  int    // CircleOpt stage-1 MOSAIC iterations per window
	DiskDir    string // directory for the disk-tier variants
}

// DefaultCacheOptions sizes an 8×8 repeated-cell sweep over the runner's
// grid: the core pitch matches the cell pitch and the halo stays inside
// the motif margin, so every cell window is pixel-identical — the
// geometry the dedup cache is built for.
func DefaultCacheOptions(gridN int) CacheOptions {
	return CacheOptions{
		Rows: 8, Cols: 8,
		CorePx:    gridN / 8,
		HaloPx:    gridN / 32,
		Iters:     20,
		InitIters: 8,
	}
}

// CacheTable runs the tiled flow over the repeated-cell array once
// uncached, then cold and warm through the memory and disk cache tiers,
// and reports computed-vs-served window counts, wall time, the speedup
// over the uncached baseline, and warm-vs-cold — with the byte-identical
// contract checked on every variant. The warm disk row uses a fresh
// cache over the same directory, the cross-process persistence story.
func (r *Runner) CacheTable(o CacheOptions) (*Table, error) {
	l := layout.GenerateArray(o.Rows, o.Cols, layout.ArrayConfig{})
	t := &Table{
		Title: fmt.Sprintf("Window dedup cache: %s, grid %d, core %d, halo %d",
			l.Name, r.Opt.GridN, o.CorePx, o.HaloPx),
		Header: []string{"variant", "tiles", "computed", "hits", "disk-hits", "wall", "speedup", "vs-cold", "identical"},
	}
	// Warm the kernel cache so the uncached baseline is not charged the
	// one-time SOCS decomposition.
	window := o.CorePx + 2*o.HaloPx
	warmCfg := optics.Default()
	warmCfg.TileNM = float64(window) * float64(l.TileNM) / float64(r.Opt.GridN)
	if _, err := litho.New(warmCfg, window); err != nil {
		return nil, err
	}

	run := func(c *wcache.Cache) (*flow.Result, time.Duration, error) {
		fCfg := flow.Config{
			GridN:       r.Opt.GridN,
			CorePx:      o.CorePx,
			HaloPx:      o.HaloPx,
			Optics:      optics.Default(),
			KOpt:        r.Opt.KOpt,
			Workers:     1,
			TileWorkers: 1,
			Engines:     exhibitEngines(o.InitIters, o.Iters, ""),
			Cache:       c,
		}
		start := time.Now()
		res, err := flow.Run(l, fCfg)
		return res, time.Since(start), err
	}

	type variant struct {
		name string
		mk   func() (*wcache.Cache, error)
		warm bool // reuse the previous variant's cache state
	}
	memCache, err := wcache.New(wcache.Config{})
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{name: "uncached"},
		{name: "mem cold", mk: func() (*wcache.Cache, error) { return memCache, nil }},
		{name: "mem warm", mk: func() (*wcache.Cache, error) { return memCache, nil }, warm: true},
	}
	if o.DiskDir != "" {
		variants = append(variants,
			variant{name: "disk cold", mk: func() (*wcache.Cache, error) {
				return wcache.New(wcache.Config{Dir: o.DiskDir})
			}},
			// A fresh cache over the same directory: nothing in memory,
			// every window served from the persistent tier.
			variant{name: "disk warm", mk: func() (*wcache.Cache, error) {
				return wcache.New(wcache.Config{Dir: o.DiskDir})
			}, warm: true},
		)
	}

	var base *flow.Result
	var baseWall, coldWall time.Duration
	for _, v := range variants {
		var c *wcache.Cache
		if v.mk != nil {
			var err error
			if c, err = v.mk(); err != nil {
				return nil, err
			}
		}
		res, wall, err := run(c)
		if err != nil {
			return nil, err
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
		if !v.warm {
			coldWall = wall
		}
		vsCold := "-"
		if v.warm {
			vsCold = fmt.Sprintf("%.2fx", float64(coldWall)/float64(wall))
		}
		var diskHits int64
		if c != nil {
			diskHits = c.Stats().DiskHits
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%d", res.Tiles),
			fmt.Sprintf("%d", res.Tiles-res.CacheHits), // optimized in full, not served

			fmt.Sprintf("%d", res.CacheHits),
			fmt.Sprintf("%d", diskHits),
			wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(baseWall)/float64(wall)),
			vsCold,
			identical,
		})
	}
	return t, nil
}
