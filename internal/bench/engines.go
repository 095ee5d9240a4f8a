package bench

import (
	"fmt"
	"sync"

	"cfaopc/internal/core"
	"cfaopc/internal/engine"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/quarantine"
)

var stage1Mu sync.Mutex

// exhibitEngines names the chain a tiled exhibit runs: CircleOpt at the
// simulator's pitch with the paper's defaults, iters stage-2 iterations
// and a fixed init-iteration stage 1, falling back to fallback ("" for
// none). The stage-1 count is part of the engine's name, so it reaches
// the flow's cache keys and journal fingerprints like every other knob;
// the variant is registered on first use, in the process that runs the
// exhibit (the exhibits run in-process). The remaining knobs are the CLI
// defaults, which is where the stock circlerule fallback reads its
// sample distance from.
func exhibitEngines(init, iters int, fallback string) quarantine.EngineMeta {
	name := fmt.Sprintf("circleopt-init%d", init)
	stage1Mu.Lock()
	if !engine.Known(name) {
		engine.Register(name, func(o engine.Options) engine.Optimizer {
			return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
				cfg := core.DefaultConfig(sim.DX)
				cfg.Iterations = o.Iters
				res := (&core.CircleOpt{Cfg: cfg, InitIterations: init}).Optimize(sim, target)
				return res.Mask, res.Shots
			}
		})
	}
	stage1Mu.Unlock()
	o := engine.Defaults()
	o.Iters = iters
	return engine.Meta(name, fallback, o)
}
