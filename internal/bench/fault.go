package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
)

// FaultOptions configures the fault-tolerance exhibit.
type FaultOptions struct {
	CorePx    int   // core px owned per window
	HaloPx    int   // halo context px around each core
	Iters     int   // CircleOpt stage-2 iterations per window
	InitIters int   // CircleOpt stage-1 MOSAIC iterations per window
	Seed      int64 // random full-chip layout seed
	Features  int   // bars in the random layout
	Retries   int   // extra attempts before degrading
}

// DefaultFaultOptions mirrors DefaultFlowOptions' 2×2-core chip.
func DefaultFaultOptions(gridN int) FaultOptions {
	return FaultOptions{
		CorePx:    gridN / 2,
		HaloPx:    gridN / 16,
		Iters:     20,
		InitIters: 8,
		Seed:      7,
		Features:  8,
		Retries:   1,
	}
}

// FaultTable makes the fault envelope observable: the same full-chip run
// executed clean, under deterministic injected faults (a panicking tile
// that recovers on retry, a NaN tile that degrades to rule-based
// fracturing), and interrupted-then-resumed from a checkpoint journal.
// The "identical" column compares each run's stitched shot list against
// the faulted reference — the resumed run must match it byte for byte.
func (r *Runner) FaultTable(o FaultOptions) (*Table, error) {
	l := layout.GenerateRandom(o.Seed, layout.RandomConfig{Features: o.Features})
	plan := flow.FaultPlan{
		0: {{Panic: true}},            // recovers on retry
		3: {{NaN: true}, {NaN: true}}, // exhausts retries, degrades to the rule engine
	}
	mkCfg := func(faulted bool) flow.Config {
		cfg := flow.Config{
			GridN:       r.Opt.GridN,
			CorePx:      o.CorePx,
			HaloPx:      o.HaloPx,
			Optics:      optics.Default(),
			KOpt:        r.Opt.KOpt,
			Workers:     1,
			TileWorkers: 1, // serial keeps the interruption point deterministic
			TileRetries: o.Retries,
			Engines:     exhibitEngines(o.InitIters, o.Iters, "circlerule"),
		}
		if faulted {
			cfg.Faults = plan
		}
		return cfg
	}

	t := &Table{
		Title:  fmt.Sprintf("Fault tolerance: %s, grid %d, core %d, halo %d, retries %d", l.Name, r.Opt.GridN, o.CorePx, o.HaloPx, o.Retries),
		Header: []string{"scenario", "tiles", "retried", "fallback", "empty", "resumed", "shots", "wall", "identical"},
	}
	var ref *flow.Result
	row := func(name string, res *flow.Result, wall time.Duration) {
		identical := "reference"
		if ref == nil {
			ref = res
		} else if sameShots(ref.Shots, res.Shots) {
			identical = "yes"
		} else {
			identical = "NO"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", res.Tiles),
			fmt.Sprintf("%d", res.Retried),
			fmt.Sprintf("%d", res.Fallbacks),
			fmt.Sprintf("%d", res.Empty),
			fmt.Sprintf("%d", res.Resumed),
			fmt.Sprintf("%d", len(res.Shots)),
			wall.Round(time.Millisecond).String(),
			identical,
		})
	}

	// Faulted reference: retries and degradation, no interruption.
	start := time.Now()
	res, err := flow.Run(l, mkCfg(true))
	if err != nil {
		return nil, err
	}
	row("faults", res, time.Since(start))

	// Interrupted + resumed: cancel as the last tile starts, then rerun
	// against the journal.
	dir, err := os.MkdirTemp("", "cfaopc-fault")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := mkCfg(true)
	cfg.CheckpointPath = ckpt
	// Interrupt the serial run as tile 1 reports completion: tile 0 is
	// already journaled, and everything from tile 1 on recomputes on
	// resume.
	cfg.Events = func(ev flow.Event) {
		if ev.Kind == flow.EventTile && ev.Tile >= 1 {
			cancel()
		}
	}
	start = time.Now()
	if _, err := flow.RunContext(ctx, l, cfg); !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("bench: interrupted run: %v", err)
	}
	cfg = mkCfg(true)
	cfg.CheckpointPath = ckpt
	res, err = flow.Run(l, cfg)
	if err != nil {
		return nil, err
	}
	row("faults, interrupted+resumed", res, time.Since(start))

	// Clean run for scale: what the faults cost in shots and wall time.
	start = time.Now()
	res, err = flow.Run(l, mkCfg(false))
	if err != nil {
		return nil, err
	}
	row("clean", res, time.Since(start))
	return t, nil
}
