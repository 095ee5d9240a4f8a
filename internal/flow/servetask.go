package flow

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/netpool"
	"cfaopc/internal/opt"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// BundleConfig reconstructs the window-level flow Config a bundle
// encodes: the knobs a live run applied to this tile, its engine names
// and its recorded fault script. Worker tasks and offline replay both
// start from it, so both walk the ladder the live run walked.
func BundleConfig(b *quarantine.Bundle, workers int) Config {
	cfg := Config{
		GridN:        b.GridN,
		CorePx:       b.CorePx,
		HaloPx:       b.HaloPx,
		KOpt:         b.KOpt,
		Workers:      workers,
		Engines:      b.Engines,
		TileRetries:  b.TileRetries,
		TileTimeout:  b.TileTimeout,
		StallTimeout: b.StallTimeout,
		RMinPx:       b.RMinPx,
		RMaxPx:       b.RMaxPx,
	}
	if len(b.Faults) > 0 {
		cfg.Faults = FaultPlan{b.Tile.Index: b.Faults}
	}
	return cfg
}

// ServeTask executes one dispatched tile inside a worker process: it
// rebuilds the window Config from the task's bundle, runs the full
// degradation ladder via RunWindow — resolving the bundle's engine
// names through the same registry the coordinator used — with
// heartbeats and snapshots streaming to sink, and packages the
// window-local result as the reply frame. The caller owns the
// simulator, which it should cache across tasks since every window in a
// run shares one imaging condition.
func ServeTask(ctx context.Context, sim *litho.Simulator, t *procpool.Task, sink procpool.Sink) procpool.Reply {
	b := &t.Bundle
	reply := procpool.Reply{Index: b.Tile.Index}
	if err := b.ValidateTask(); err != nil {
		reply.Err = err.Error()
		return reply
	}
	cfg := BundleConfig(b, t.Workers)
	cfg.PartialEvery = t.PartialEvery
	target := &grid.Real{W: b.TargetW, H: b.TargetH, Data: b.Target}
	hooks := WindowHooks{Dispatch: t.Dispatch}
	if sink != nil {
		index := b.Tile.Index
		hooks.OnBeat = func(iter int, loss float64) { sink.Beat(index, iter, loss) }
		if t.PartialEvery > 0 {
			hooks.OnPartial = func(attempt int, s opt.Snapshot) {
				sink.Partial(index, procpool.PartialState{
					Attempt: attempt, Iter: s.Iter, Loss: s.Loss,
					Params: s.Params, OptT: s.OptT, OptM: s.OptM, OptV: s.OptV,
				})
			}
		}
	}
	if r := t.Resume; r != nil {
		hooks.Resume = &opt.Snapshot{
			Iter: r.Iter, Loss: r.Loss, Params: r.Params,
			OptT: r.OptT, OptM: r.OptM, OptV: r.OptV,
		}
		hooks.ResumeAttempt = r.Attempt
	}
	shots, stat, attempts, err := RunWindow(ctx, sim, cfg, b.Tile.Index, b.Tile.CX, b.Tile.CY, target, hooks)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	if stat.Path == "" {
		// Only a canceled context abandons a ladder; a worker's context
		// is never canceled mid-task, so this is strictly defensive.
		reply.Err = "task canceled mid-ladder"
		return reply
	}
	reply.Shots = shots
	reply.Path = stat.Path
	reply.Attempts = attempts
	return reply
}

// simKey identifies the simulator a task needs; tasks from one run all
// share it, so a worker caches a single simulator across tasks.
type simKey struct {
	optics   string
	windowPx int
	kOpt     int
	workers  int
}

// simCache builds and reuses the window simulator across tasks served
// by one worker session. Kernel setup is the expensive part of a
// respawn; caching it means a healthy worker pays it once.
type simCache struct {
	key simKey
	sim *litho.Simulator
}

// get returns a simulator matching the task's imaging condition,
// building one only when the condition changed (in practice: once).
func (c *simCache) get(t *procpool.Task) (*litho.Simulator, error) {
	b := &t.Bundle
	key := simKey{
		optics:   fmt.Sprintf("%+v", b.Optics),
		windowPx: b.Tile.WindowPx,
		kOpt:     b.KOpt,
		workers:  t.Workers,
	}
	if c.sim != nil && c.key == key {
		return c.sim, nil
	}
	sim, err := litho.New(b.Optics, b.Tile.WindowPx)
	if err != nil {
		return nil, err
	}
	sim.KOpt = b.KOpt
	sim.Workers = t.Workers
	c.sim, c.key = sim, key
	return sim, nil
}

// runner builds the task executor one worker session uses. Each call
// returns an independent executor with its own simulator cache, so
// concurrent TCP sessions stay race-free.
func runner() procpool.Runner {
	var cache simCache
	return func(ctx context.Context, t *procpool.Task, sink procpool.Sink) procpool.Reply {
		if err := t.Bundle.ValidateTask(); err != nil {
			return procpool.Reply{Index: t.Bundle.Tile.Index, Err: err.Error()}
		}
		sim, err := cache.get(t)
		if err != nil {
			return procpool.Reply{Index: t.Bundle.Tile.Index, Err: "litho: " + err.Error()}
		}
		return ServeTask(ctx, sim, t, sink)
	}
}

// Serve runs the pipe-transport worker loop on r/w until the
// supervisor closes the task stream.
func Serve(r io.Reader, w io.Writer) error {
	return procpool.Serve(r, w, runner())
}

// Listen serves the same worker loop over TCP: every coordinator
// connection is handshaken (protocol version + optional config
// fingerprint pin, under the handshake deadline) and then served its
// own task session. It blocks until the listener closes.
func Listen(ln net.Listener, pin string, handshake time.Duration) error {
	srv := &netpool.Server{Pin: pin, Handshake: handshake, Runner: runner}
	return srv.Serve(ln)
}

// ServeIfWorker is the re-exec branch every worker-capable binary runs
// first: when the process was spawned as a pipe tile worker
// (procpool.InWorker), it serves frames on stdin/stdout and exits.
// Returns without side effects otherwise. A worker resolves task engine
// names through its own registry, so it serves exactly the engines its
// binary registers.
func ServeIfWorker() {
	if !procpool.InWorker() {
		return
	}
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}
