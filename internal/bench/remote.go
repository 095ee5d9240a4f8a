package bench

import (
	"fmt"
	"os/exec"
	"time"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
)

// RemoteOptions configures the distributed tile-worker exhibit. The two
// process hooks come from the caller (cmd/paperbench re-executes itself
// for both roles); leaving one nil skips that transport's rows.
type RemoteOptions struct {
	CorePx   int   // core px owned per window
	HaloPx   int   // halo context px around each core
	Iters    int   // CircleOpt stage-2 iterations per window
	Seed     int64 // random full-chip layout seed
	Features int   // bars in the random layout
	Pool     int   // worker subprocess / remote host count

	// WorkerCmd builds one pipe-transport worker subprocess (the
	// -proc-workers rows).
	WorkerCmd func() *exec.Cmd
	// StartHost launches one loopback TCP tile-worker host and returns
	// its dial address (the -remote rows).
	StartHost func() (addr string, stop func(), err error)
}

// DefaultRemoteOptions sizes a 2×2-core sweep over the runner's grid
// with a two-lane pool — enough to show the dispatch overhead without
// drowning the exhibit in optimization time.
func DefaultRemoteOptions(gridN int) RemoteOptions {
	return RemoteOptions{
		CorePx:   gridN / 2,
		HaloPx:   gridN / 16,
		Iters:    12,
		Seed:     7,
		Features: 8,
		Pool:     2,
	}
}

// RemoteTable runs the same tiled layout in-process, through supervised
// worker subprocesses, and across loopback TCP hosts, and reports wall
// time, the overhead each transport pays over the in-process baseline,
// and whether the stitched shot list stayed byte-identical — the
// determinism contract of the distributed flow made observable. All
// variants name one registered engine chain, so the workers resolve
// exactly what the in-process run executes.
func (r *Runner) RemoteTable(o RemoteOptions) (*Table, error) {
	l := layout.GenerateRandom(o.Seed, layout.RandomConfig{Features: o.Features})
	opts := engine.Options{Iters: o.Iters, Gamma: 3, SampleNM: 32}
	t := &Table{
		Title: fmt.Sprintf("Distributed tile workers: %s, grid %d, core %d, halo %d, pool %d",
			l.Name, r.Opt.GridN, o.CorePx, o.HaloPx, o.Pool),
		Header: []string{"transport", "tiles", "shots", "wall", "overhead", "identical"},
	}
	// Warm the kernel cache so the baseline is not charged the one-time
	// SOCS decomposition (workers pay their own; that cost is part of the
	// overhead being measured).
	window := o.CorePx + 2*o.HaloPx
	warmCfg := optics.Default()
	warmCfg.TileNM = float64(window) * float64(l.TileNM) / float64(r.Opt.GridN)
	if _, err := litho.New(warmCfg, window); err != nil {
		return nil, err
	}

	mk := func() flow.Config {
		return flow.Config{
			GridN:       r.Opt.GridN,
			CorePx:      o.CorePx,
			HaloPx:      o.HaloPx,
			Optics:      optics.Default(),
			KOpt:        r.Opt.KOpt,
			Workers:     1,
			TileWorkers: 1,
			Engines:     engine.Meta("circleopt", "", opts),
		}
	}
	type variant struct {
		name string
		cfg  func() (flow.Config, func(), error)
	}
	variants := []variant{
		{name: "in-process", cfg: func() (flow.Config, func(), error) { return mk(), nil, nil }},
	}
	if o.WorkerCmd != nil {
		variants = append(variants, variant{name: "proc", cfg: func() (flow.Config, func(), error) {
			cfg := mk()
			cfg.ProcWorkers = o.Pool
			cfg.WorkerCmd = o.WorkerCmd
			return cfg, nil, nil
		}})
	}
	if o.StartHost != nil {
		variants = append(variants, variant{name: "remote", cfg: func() (flow.Config, func(), error) {
			cfg := mk()
			var stops []func()
			for i := 0; i < o.Pool; i++ {
				addr, stop, err := o.StartHost()
				if err != nil {
					for _, s := range stops {
						s()
					}
					return flow.Config{}, nil, err
				}
				cfg.RemoteHosts = append(cfg.RemoteHosts, addr)
				stops = append(stops, stop)
			}
			return cfg, func() {
				for _, s := range stops {
					s()
				}
			}, nil
		}})
	}

	var base *flow.Result
	var baseWall time.Duration
	for _, v := range variants {
		cfg, cleanup, err := v.cfg()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := flow.Run(l, cfg)
		wall := time.Since(start)
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			return nil, err
		}
		if res.ProcCrashes+res.Broken+res.RemoteCrashes+res.RemoteBroken > 0 {
			return nil, fmt.Errorf("bench: %s variant degraded (crashes %d/%d, broken %d/%d): exhibit would not measure the healthy path",
				v.name, res.ProcCrashes, res.RemoteCrashes, res.Broken, res.RemoteBroken)
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
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%d", res.Tiles),
			fmt.Sprintf("%d", len(res.Shots)),
			wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(wall)/float64(baseWall)),
			identical,
		})
	}
	return t, nil
}
