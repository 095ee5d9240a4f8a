package flow

import (
	"context"
	"fmt"
	"math"
	"time"

	"cfaopc/internal/engine"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// TileInfo identifies the window an optimizer invocation is serving. The
// flow publishes it on the simulator's context (sim.Ctx) before every
// attempt, which is what lets wrappers — the fault-injection harness
// below, or telemetry — key behaviour on (tile, attempt) without
// widening the engine.Optimizer signature.
type TileInfo struct {
	Index   int // row-major window index
	Attempt int // 0-based attempt counter; the fallback attempt is TileRetries+1
	CX, CY  int // core origin in full-grid pixels
	// Dispatch counts how many times the tile has been handed to a
	// worker process (always 0 in-process). Process-fatal fault scripts
	// (quarantine.Fault.Kill) key on it so a scripted crash-loop terminates
	// deterministically.
	Dispatch int
}

type tileInfoKey struct{}

// TileInfoFrom extracts the tile identity the flow attached to ctx.
// Outside a flow attempt (single-window use, nil context) ok is false.
func TileInfoFrom(ctx context.Context) (TileInfo, bool) {
	if ctx == nil {
		return TileInfo{}, false
	}
	info, ok := ctx.Value(tileInfoKey{}).(TileInfo)
	return info, ok
}

// FaultPlan maps a tile index to its per-attempt fault scripts: attempt
// k of tile i suffers plan[i][k]; attempts past the end of the slice run
// clean. Keying on (tile, attempt) makes every failure → retry →
// fallback trajectory deterministic, which is what lets the tests demand
// byte-identical output across interrupted and uninterrupted runs.
type FaultPlan map[int][]quarantine.Fault

// injectFaults wraps an optimizer with deterministic fault injection
// driven by the tile identity the flow publishes on sim.Ctx. Invocations
// outside a flow (no TileInfo on the context) pass through untouched.
// Config.Faults is its only input (see resolveEngines).
func injectFaults(opt engine.Optimizer, plan FaultPlan) engine.Optimizer {
	return func(sim *litho.Simulator, target *grid.Real) (*grid.Real, []geom.Circle) {
		info, ok := TileInfoFrom(sim.Ctx)
		if !ok {
			return opt(sim, target)
		}
		script := plan[info.Index]
		if info.Attempt >= len(script) {
			return opt(sim, target)
		}
		f := script[info.Attempt]
		if f.Kill > 0 && info.Dispatch < f.Kill && procpool.InWorker() {
			procpool.SelfKill()
		}
		if f.Stall {
			// Wedge silently until killed: no heartbeats, no return.
			<-sim.Ctx.Done()
			return grid.NewReal(target.W, target.H), nil
		}
		if f.Sleep > 0 {
			if !sleepCtx(sim.Ctx, f.Sleep, f.BeatEvery) {
				// Deadline or cancellation during the injected sleep:
				// return garbage; the flow discards it on ctx.Err().
				return grid.NewReal(target.W, target.H), nil
			}
		}
		if f.Panic {
			panic(fmt.Sprintf("injected fault: tile %d attempt %d", info.Index, info.Attempt))
		}
		if f.NaN {
			mask := grid.NewReal(target.W, target.H)
			mask.Data[0] = math.NaN()
			return mask, []geom.Circle{{X: math.NaN(), Y: 1, R: 1}}
		}
		if f.BadRadius {
			mask := grid.NewReal(target.W, target.H)
			return mask, []geom.Circle{{X: 1, Y: 1, R: 1e9}}
		}
		return opt(sim, target)
	}
}

// sleepCtx blocks for d, optionally emitting a synthetic heartbeat
// every beatEvery, and reports whether the full sleep completed (false
// when ctx was canceled first).
func sleepCtx(ctx context.Context, d, beatEvery time.Duration) bool {
	if beatEvery <= 0 || beatEvery > d {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-ctx.Done():
			return false
		}
	}
	deadline := time.Now().Add(d)
	for beat := 0; ; beat++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return true
		}
		slice := beatEvery
		if slice > remaining {
			slice = remaining
		}
		t := time.NewTimer(slice)
		select {
		case <-t.C:
			opt.Beat(ctx, beat, 0)
		case <-ctx.Done():
			t.Stop()
			return false
		}
	}
}
