package main

import (
	"context"
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cfaopc/internal/core"
	"cfaopc/internal/fft"
	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/ilt"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
	"cfaopc/internal/optics"
	"cfaopc/internal/server"
	"cfaopc/internal/wcache"
)

const (
	ladderReps      = 7  // repetitions per timed rung (median reported)
	ladderIters     = 5  // optimizer iterations per iteration rung
	ladderMaxWindow = 48 // occupied windows sampled by the fracture and geom rungs
)

// medianOf times f reps times inside spans named name and returns the
// median in milliseconds.
func medianOf(tr *tracer, parent int, name string, reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = tr.time(parent, name, f)
	}
	return median(xs)
}

// allocPerCall returns the bytes f allocates per call, averaged over reps.
func allocPerCall(reps int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(reps)
}

// beatGaps runs f with a heartbeat receiver on sim and returns the median
// gap between consecutive heartbeats of one stage, in milliseconds.
func beatGaps(tr *tracer, parent int, name string, sim *litho.Simulator, f func()) float64 {
	var at []time.Time
	var iters []int
	sim.Ctx = opt.WithProgress(context.Background(), func(iter int, _ float64, t time.Time) {
		iters = append(iters, iter)
		at = append(at, t)
	})
	defer func() { sim.Ctx = nil }()
	f()
	var gaps []float64
	for i := 1; i < len(at); i++ {
		if iters[i] == iters[i-1]+1 {
			gaps = append(gaps, ms(at[i].Sub(at[i-1])))
			tr.add(parent, name, "", at[i-1], at[i])
		}
	}
	return median(gaps)
}

// windowTargets rasterizes every window of job 0's plan and returns the
// index, the distinct occupied window targets (up to max, evenly
// sampled; repeats are what the window cache serves without computing),
// the occupied count and the total count.
func windowTargets(p *plan, l *layout.Layout, maxOut int) (ix *layout.WindowIndex, occ []*grid.Real, occupied, total int) {
	ix = layout.NewWindowIndex(l, p.gridN)
	if p.paper {
		t, _ := ix.Window(0, 0, p.gridN, p.gridN)
		return ix, []*grid.Real{t}, 1, 1
	}
	core, halo := p.specs[0].TileCore, p.specs[0].TileHalo
	var all []*grid.Real
	seen := map[[32]byte]bool{}
	for cy := 0; cy < p.gridN; cy += core {
		for cx := 0; cx < p.gridN; cx += core {
			total++
			t, ok := ix.Window(cx-halo, cy-halo, p.window, p.window)
			if !ok {
				continue
			}
			occupied++
			if k := rasterKey(t); !seen[k] {
				seen[k] = true
				all = append(all, t)
			}
		}
	}
	step := 1
	if len(all) > maxOut {
		step = (len(all) + maxOut - 1) / maxOut
	}
	for i := 0; i < len(all); i += step {
		occ = append(occ, all[i])
	}
	return ix, occ, occupied, total
}

// ladder times each layer's public functions on the workload's own
// window targets at its own window edge, and returns per-layer metrics.
// Every rung runs on every workload: where a workload's path bypasses a
// layer, the rung is the prediction that the layer's change leaves that
// workload unmoved.
func (b *bench) ladder(p *plan, tr *tracer, out map[string]float64) error {
	root := tr.begin(0, "ladder")
	defer tr.end(root)
	ix, targets, occupied, total := windowTargets(p, p.layouts[0], ladderMaxWindow)
	target := targets[0]
	w := p.window

	// fft: forward and inverse 2-D transforms at the window edge.
	g := grid.NewComplex(w, w)
	for i, v := range target.Data {
		g.Data[i] = complex(v, 0)
	}
	fft.Forward2D(g) // plan creation outside the timed region
	fwd := medianOf(tr, root, "fft.fwd2d", ladderReps, func() { fft.Forward2D(g) })
	inv := medianOf(tr, root, "fft.inv2d", ladderReps, func() { fft.Inverse2D(g) })
	out["fft.fwd2d_ms"] = fwd
	out["fft.inv2d_ms"] = inv
	out["fft.alloc_kb"] = allocPerCall(ladderReps, func() { fft.Forward2D(g) }) / 1024
	n2 := float64(w * w)
	out["fft.gflops"] = 5 * n2 * math.Log2(n2) / (fwd / 1e3) / 1e9 // computed: 5·N²·log2(N²) per transform

	// optics + litho set-up.
	cfg := p.windowOptics()
	out["optics.kernels_ms"] = medianOf(tr, root, "optics.kernels", 3, func() {
		optics.ComputeKernels(cfg, false)
		optics.ComputeKernels(cfg, true)
	})
	var sim *litho.Simulator
	var err error
	out["litho.sim_new_ms"] = medianOf(tr, root, "litho.sim_new", ladderReps, func() { sim, err = litho.New(cfg, w) })
	if err != nil {
		return err
	}
	sim.KOpt, sim.Workers = loopKOpt, 1

	// litho: the differentiable forward and adjoint passes.
	k := sim.KOpt
	fields := make([]*grid.Complex, k)
	var aerial *grid.Real
	out["litho.aerial_ms"] = medianOf(tr, root, "litho.aerial", ladderReps, func() {
		aerial = sim.Aerial(target, sim.Focus, true, fields)
	})
	out["litho.aerial_backward_ms"] = medianOf(tr, root, "litho.aerial_backward", ladderReps, func() {
		sim.AerialBackward(aerial, sim.Focus, true, fields)
	})
	out["litho.lossgrad_ms"] = medianOf(tr, root, "litho.lossgrad", ladderReps, func() { sim.LossGrad(target, target, 1, 1) })
	out["litho.lossgrad_alloc_mb"] = allocPerCall(3, func() { sim.LossGrad(target, target, 1, 1) }) / (1 << 20)

	// ilt: stage-1 MOSAIC iterations.
	mcfg := ilt.DefaultConfig()
	mcfg.Iterations = ladderIters
	out["ilt.mosaic_iter_ms"] = beatGaps(tr, root, "ilt.mosaic_iter", sim, func() { (&ilt.Mosaic{Cfg: mcfg}).Optimize(sim, target) })

	// core: stage-2 CircleOpt from CircleRule seeds.
	rule := p.ruleConfig()
	seeds := fracture.CircleRule(target, rule)
	ccfg := core.DefaultConfig(p.dx)
	ccfg.Iterations = ladderIters
	out["core.circles"] = float64(len(seeds))
	params := &core.Params{}
	for _, c := range seeds {
		params.X = append(params.X, c.X)
		params.Y = append(params.Y, c.Y)
		params.R = append(params.R, c.R)
		params.Q = append(params.Q, 1)
	}
	var dense *core.Dense
	out["core.render_ms"] = medianOf(tr, root, "core.render", ladderReps, func() { dense = core.Render(params, ccfg, w, w, true) })
	lg := sim.LossGrad(dense.M, target, 1, 1)
	out["core.backward_ms"] = medianOf(tr, root, "core.backward", ladderReps, func() { core.Backward(params, ccfg, dense, lg.GradM) })
	co := &core.CircleOpt{Cfg: ccfg, RuleCfg: rule}
	out["core.circle_iter_ms"] = beatGaps(tr, root, "core.circle_iter", sim, func() { co.OptimizeFromShots(sim, target, seeds) })

	// fracture + geom: per occupied window.
	var rules, skels, edts []float64
	for _, t := range targets {
		rules = append(rules, tr.time(root, "fracture.circlerule", func() { fracture.CircleRule(t, rule) }))
		skels = append(skels, tr.time(root, "geom.skeleton", func() { geom.Skeleton(t) }))
		edts = append(edts, tr.time(root, "geom.edt", func() { geom.DistanceTransform(t) }))
	}
	out["fracture.circlerule_ms"] = median(rules)
	out["fracture.circlerule_mean_ms"] = mean(rules)
	out["geom.skeleton_ms"] = median(skels)
	out["geom.edt_ms"] = median(edts)

	// layout: the window index and one window's rasterization.
	out["layout.index_ms"] = medianOf(tr, root, "layout.index", ladderReps, func() { layout.NewWindowIndex(p.layouts[0], p.gridN) })
	var wins []float64
	if p.paper {
		wins = append(wins, tr.time(root, "layout.window", func() { ix.Window(0, 0, w, w) })*1e3)
	} else {
		tc, th := p.specs[0].TileCore, p.specs[0].TileHalo
		for cy := 0; cy < p.gridN; cy += tc {
			for cx := 0; cx < p.gridN; cx += tc {
				wins = append(wins, tr.time(root, "layout.window", func() { ix.Window(cx-th, cy-th, w, w) })*1e3)
			}
		}
	}
	out["layout.window_us"] = median(wins)
	out["layout.occupied_ratio"] = float64(occupied) / float64(total)
	return nil
}

// directResult is one in-process server.RunSpec of a spec.
type directResult struct {
	span     float64 // ms
	res      *flow.Result
	shotsCSV []byte
	maskPGM  []byte
	windows  []float64 // ms, computed windows, from in-process tile events
	bands    int
	ckpt     int64
}

// direct runs spec through server.RunSpec with the daemon's artifacts
// (checkpoint, streamed mask, shot list) and observes it through the
// public hooks RunOpts.Events and RunOpts.OnBand.
func (b *bench) direct(p *plan, spec *server.JobSpec, dir string, tr *tracer) (*directResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, err := spec.ResolveLayout(p.layoutDir)
	if err != nil {
		return nil, err
	}
	var cache *wcache.Cache
	if p.cached {
		if cache, err = wcache.New(wcache.Config{MaxBytes: cacheBytes}); err != nil {
			return nil, err
		}
	}
	dr := &directResult{}
	type tileAt struct {
		computed bool // occupied and not served from the cache
		at       time.Time
	}
	tiles := make(chan tileAt, (spec.GridN/spec.TileCore)*(spec.GridN/spec.TileCore))
	opts := server.RunOpts{
		Checkpoint: filepath.Join(dir, "flow.ckpt"),
		MaskPath:   filepath.Join(dir, "mask.pgm"),
		ShotsPath:  filepath.Join(dir, "shots.csv"),
		Cache:      cache,
		Events: func(ev flow.Event) {
			if ev.Kind == flow.EventTile {
				select {
				case tiles <- tileAt{ev.Stat.Occupied && !ev.Stat.CacheHit, time.Now()}:
				default: // never blocks the flow; a full buffer means a planning bug
				}
			}
		},
		OnBand: func(int, int) { dr.bands++ },
	}
	start := time.Now()
	dr.res, err = server.RunSpec(context.Background(), l, spec, opts)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	dr.span = ms(end.Sub(start))
	runID := tr.add(0, "direct", "direct", start, end)
	close(tiles)
	prev := start
	for t := range tiles {
		tr.add(runID, "tile", "direct", prev, t.at)
		if t.computed {
			dr.windows = append(dr.windows, ms(t.at.Sub(prev)))
		}
		prev = t.at
	}
	if dr.shotsCSV, err = os.ReadFile(opts.ShotsPath); err != nil {
		return nil, err
	}
	if dr.maskPGM, err = os.ReadFile(opts.MaskPath); err != nil {
		return nil, err
	}
	if st, err := os.Stat(opts.Checkpoint); err == nil {
		dr.ckpt = st.Size()
	}
	return dr, nil
}

// rasterKey identifies a window target by its binarized pixels.
func rasterKey(g *grid.Real) [32]byte {
	b := make([]byte, len(g.Data))
	for i, v := range g.Data {
		if v > 0.5 {
			b[i] = 1
		}
	}
	return sha256.Sum256(b)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fractureOrder beam-orders the round's first shot list.
func fractureOrder(r *roundResult) { fracture.OrderShots(r.shotLists[0]) }
