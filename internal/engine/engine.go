// Package engine names the optimizer chain. It is the one place a
// method name becomes code: a registry maps each name to a builder, and
// every consumer — the single-window CLI path, the tiled flow on every
// transport (in-process, worker subprocesses, TCP hosts), and offline
// bundle replay — resolves names through it. The tiled flow carries
// nothing but quarantine.EngineMeta (names plus knobs), and FromMeta
// turns that into the exact optimizers, so what a cache key, a journal
// fingerprint or a worker handshake hashes is exactly what runs.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cfaopc/internal/core"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/ilt"
	"cfaopc/internal/litho"
	"cfaopc/internal/quarantine"
)

// Optimizer produces a mask and shot list for one window target. It
// must be safe to call concurrently on distinct simulators.
type Optimizer func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle)

// Options are the resolution-independent knobs every engine shares;
// resolution-dependent settings derive from the simulator each call
// sees. The zero value is not useful — use Defaults.
type Options struct {
	Iters    int     // optimization iterations
	Gamma    float64 // CircleOpt sparsity weight at the paper's 1 nm/px scale
	SampleNM float64 // circle sample distance in nm
}

// Defaults mirror cmd/cfaopc's flag defaults.
func Defaults() Options { return Options{Iters: 60, Gamma: 3, SampleNM: 32} }

// Builder turns the shared knobs into one engine's optimizer.
type Builder func(Options) Optimizer

var (
	regMu    sync.RWMutex
	registry = map[string]Builder{}
)

// Register adds a named engine. Names are case-insensitive; registering
// a name twice panics, so two packages cannot silently disagree about
// what a name in a journal or a worker task means. A process that
// serves tile tasks must register the same names as the coordinator
// that sends them (register in an init function).
func Register(name string, b Builder) {
	key := strings.ToLower(name)
	if key == "" || key == "none" || b == nil {
		panic(fmt.Sprintf("engine: invalid registration %q", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("engine: %q registered twice", key))
	}
	registry[key] = b
}

// Names lists the registered method names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Known reports whether method names a registered engine.
func Known(method string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[strings.ToLower(method)]
	return ok
}

// For builds the named method's optimizer.
func For(method string, o Options) (Optimizer, error) {
	regMu.RLock()
	b, ok := registry[strings.ToLower(method)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown method %q (have %s)", method, strings.Join(Names(), " | "))
	}
	return b(o), nil
}

// Meta records a primary/fallback pair and its knobs for flow.Config
// (and from there cache keys, journal fingerprints, worker tasks and
// quarantine bundles). Names are lowercased, and a fallback of "" or
// "none" both record as "" — the same chain always has the same meta.
func Meta(primary, fallback string, o Options) quarantine.EngineMeta {
	fallback = strings.ToLower(fallback)
	if fallback == "none" {
		fallback = ""
	}
	return quarantine.EngineMeta{
		Primary:  strings.ToLower(primary),
		Fallback: fallback,
		Iters:    o.Iters,
		Gamma:    o.Gamma,
		SampleNM: o.SampleNM,
	}
}

// FromMeta builds the optimizer chain m names. The fallback is nil when
// m records none.
func FromMeta(m quarantine.EngineMeta) (primary, fallback Optimizer, err error) {
	o := Options{Iters: m.Iters, Gamma: m.Gamma, SampleNM: m.SampleNM}
	if primary, err = For(m.Primary, o); err != nil {
		return nil, nil, err
	}
	if m.Fallback != "" && !strings.EqualFold(m.Fallback, "none") {
		if fallback, err = For(m.Fallback, o); err != nil {
			return nil, nil, err
		}
	}
	return primary, fallback, nil
}

// ruleFor is the CircleRule configuration every built-in engine
// fractures with: the paper defaults at the simulator's pitch, with the
// sample distance taken from the knobs.
func ruleFor(sim *litho.Simulator, o Options) fracture.CircleRuleConfig {
	cfg := fracture.DefaultCircleRuleConfig(sim.DX)
	cfg.SampleDist = max(1, int(o.SampleNM/sim.DX))
	return cfg
}

// circleConfig is the CircleOpt/DoseOpt configuration at the
// simulator's pitch.
func circleConfig(sim *litho.Simulator, o Options) core.Config {
	cfg := core.DefaultConfig(sim.DX)
	cfg.Iterations = o.Iters
	cfg.Gamma = o.Gamma / sim.DX // knob is in the paper's 1 nm/px scale
	return cfg
}

// pixelThenRule runs a pixel ILT engine and fractures its mask with
// CircleRule.
func pixelThenRule(mk func(ilt.Config) ilt.Engine) Builder {
	return func(o Options) Optimizer {
		return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
			iltCfg := ilt.DefaultConfig()
			iltCfg.Iterations = o.Iters
			pixel := mk(iltCfg).Optimize(sim, target)
			shots := fracture.CircleRule(pixel, ruleFor(sim, o))
			return geom.RasterizeCircles(sim.N, sim.N, shots), shots
		}
	}
}

func init() {
	// No optimization at all: rule-based circle fracturing of the
	// rasterized target. The cheapest engine here, and the default
	// graceful-degradation fallback for the tiled flow.
	Register("circlerule", func(o Options) Optimizer {
		return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
			shots := fracture.CircleRule(target, ruleFor(sim, o))
			return geom.RasterizeCircles(sim.N, sim.N, shots), shots
		}
	})
	Register("circleopt", func(o Options) Optimizer {
		return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
			res := (&core.CircleOpt{Cfg: circleConfig(sim, o), RuleCfg: ruleFor(sim, o)}).Optimize(sim, target)
			return res.Mask, res.Shots
		}
	})
	Register("doseopt", func(o Options) Optimizer {
		return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
			res := (&core.DoseOpt{Cfg: circleConfig(sim, o), RuleCfg: ruleFor(sim, o)}).Optimize(sim, target)
			shots := make([]geom.Circle, 0, len(res.Shots))
			for _, ds := range res.Shots {
				shots = append(shots, ds.Circle)
			}
			return res.Mask, shots
		}
	})
	Register("greedy", func(o Options) Optimizer {
		return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
			iltCfg := ilt.DefaultConfig()
			iltCfg.Iterations = o.Iters
			pixel := (&ilt.MultiLevel{Cfg: iltCfg}).Optimize(sim, target)
			rule := ruleFor(sim, o)
			shots := fracture.GreedyCircles(pixel, fracture.GreedyCircleConfig{
				RMin: rule.RMin, RMax: rule.RMax, CoverThreshold: rule.CoverThreshold,
			})
			return geom.RasterizeCircles(sim.N, sim.N, shots), shots
		}
	})
	Register("develset", pixelThenRule(func(c ilt.Config) ilt.Engine { return &ilt.LevelSet{Cfg: c} }))
	Register("neuralilt", pixelThenRule(func(c ilt.Config) ilt.Engine { return &ilt.CycleILT{Cfg: c} }))
	Register("multiilt", pixelThenRule(func(c ilt.Config) ilt.Engine { return &ilt.MultiLevel{Cfg: c} }))
}
