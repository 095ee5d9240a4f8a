package flow

import (
	"context"

	"cfaopc/internal/core"
	"cfaopc/internal/engine"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/procpool"
)

// The test engines. A run executes only what Config.Engines names, and
// the re-exec'd worker subprocesses and TCP hosts (TestMain) resolve
// the same names from this same registry, so every fixture engine is
// registered here:
//
//   - "rule": no optimization, rule-based circle fracturing of the
//     rasterized target. Cheap, deterministic and hard to break.
//   - "circle": CircleOpt with a 5-iteration stage 1 and Iters stage-2
//     iterations.
//   - "coordinator-only": "rule", registered only in the test process
//     and not in its re-exec'd workers — a worker binary that lacks an
//     engine its coordinator names.
func init() {
	engine.Register("rule", func(engine.Options) engine.Optimizer { return hooked(ruleOptimizer) })
	engine.Register("circle", func(o engine.Options) engine.Optimizer { return hooked(circleOptimizer(o.Iters)) })
	if !procpool.InWorker() {
		engine.Register("coordinator-only", func(engine.Options) engine.Optimizer { return hooked(ruleOptimizer) })
	}
}

func ruleOptimizer(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
	shots := fracture.CircleRule(target, fracture.DefaultCircleRuleConfig(sim.DX))
	return geom.RasterizeCircles(target.W, target.H, shots), shots
}

func circleOptimizer(iters int) engine.Optimizer {
	return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
		cfg := core.DefaultConfig(sim.DX)
		cfg.Iterations = iters
		res := (&core.CircleOpt{Cfg: cfg, InitIterations: 5}).Optimize(sim, target)
		return res.Mask, res.Shots
	}
}

// tileHook stands in for a test engine invocation: it gets the engine
// it replaces and returns the attempt's output.
type tileHook func(sim *litho.Simulator, target *grid.Real, inner engine.Optimizer) (*grid.Real, []geom.Circle)

type tileHookKey struct{}

// withTileHook returns a run context under which every test engine
// calls h instead of running directly — the seam the interrupt tests
// use to cancel a run at a chosen tile. The engine names, and with them
// every fingerprint, stay the same, so the interrupted run and its
// resume share one journal. Fault scripts (Config.Faults) wrap outside
// the hook, so h sees only attempts the script lets through.
func withTileHook(ctx context.Context, h tileHook) context.Context {
	return context.WithValue(ctx, tileHookKey{}, h)
}

func hooked(inner engine.Optimizer) engine.Optimizer {
	return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
		if sim.Ctx != nil {
			if h, ok := sim.Ctx.Value(tileHookKey{}).(tileHook); ok {
				return h(sim, target, inner)
			}
		}
		return inner(sim, target)
	}
}
