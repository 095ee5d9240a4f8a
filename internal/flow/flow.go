// Package flow scales CFAOPC beyond a single simulation tile: it cuts a
// large layout into overlapping windows, optimizes each window
// independently (optics are shift-invariant, so one kernel set serves
// every window), and stitches the per-window shot lists back together,
// keeping only shots whose centers fall in each window's core region.
// This is the standard halo-and-stitch deployment of tile-based ILT on
// full-chip layouts.
//
// The flow is memory-bounded end to end: window targets are rasterized
// on demand from a row-bucketed span index over the rect geometry
// (layout.WindowIndex), never from a dense full-grid raster, and the
// stitched mask is opt-in — Config.KeepMask materializes the dense
// GridN² grid, Config.MaskWriter streams it as row bands instead, and
// with neither set the shot list is the only output. Peak flow memory
// scales with the window size and worker count, not GridN²
// (Result.PeakBytes makes that observable).
//
// Windows are independent, so Run distributes them over a bounded pool of
// tile workers (Config.TileWorkers), each owning a private
// litho.Simulator. Kernel sets are shared read-only through the optics
// cache, so per-worker simulator construction is cheap. Per-tile results
// are collected into a slice indexed by row-major tile order and reduced
// in that order, so the stitched shot list and mask are bit-identical at
// any worker count — the same determinism contract litho.Simulator.Workers
// documents for per-kernel parallelism.
//
// A full-chip run is also long and partially hostile territory — one
// degenerate window must never cost the other 9,999 — so the flow carries
// a fault envelope:
//
//   - Cancellation. RunContext threads a context through the worker pool
//     and into each worker's simulator, so SIGINT or a deadline stops the
//     run within one kernel convolution and returns ctx.Err().
//   - Isolation. Each optimizer attempt runs under recover() and its
//     output is validated (no NaNs, radii in bounds, centers inside the
//     window). A bad tile is retried (Config.TileRetries), then degraded
//     to the fallback engine, then to an empty tile — never a crashed run.
//     TileStat records every attempt's outcome and failure mode.
//   - Liveness. Engines emit per-iteration heartbeats (opt.Beat); with
//     Config.StallTimeout set, a per-attempt watchdog kills an optimizer
//     whose heartbeats stop — a wedge — long before the wall deadline
//     (Config.TileTimeout) would, while an equally slow but heartbeating
//     attempt runs on. TileStat.{Iters, LastLoss, Stalled} surface the
//     heartbeat stream.
//   - Restartability. With Config.CheckpointPath set, every completed
//     tile is journaled through internal/checkpoint; a rerun replays the
//     journal, skips finished tiles, and still reduces in row-major
//     order, so a resumed run's shot list and mask are bit-identical to
//     an uninterrupted one. Config.PartialEvery additionally journals
//     iteration-level snapshots inside long CircleOpt tiles, so a killed
//     run restarts a half-finished tile from its last recorded circle
//     parameters — and, because the Adam state rides along, replays the
//     uninterrupted trajectory exactly. CompactCheckpoint rewrites a
//     journal with superseded records dropped.
//   - Forensics. A tile that exhausts every engine degrades to empty but
//     no longer silently: with Config.QuarantineDir set, the flow writes
//     a self-contained repro bundle (window target, owning rects, config
//     fingerprint, per-attempt history, injected-fault script) through
//     internal/quarantine; cmd/replaytile replays bundles offline via
//     RunWindow.
package flow

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/engine"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
	"cfaopc/internal/optics"
	"cfaopc/internal/quarantine"
	"cfaopc/internal/wcache"
)

// ErrStalled marks an optimizer attempt killed by the stall watchdog:
// no heartbeat arrived within Config.StallTimeout, so the attempt was
// wedged, not slow.
var ErrStalled = errors.New("optimizer stalled")

// ErrDrained marks a run stopped by Config.Drain: no new tiles were
// dispatched after the drain signal, in-flight tiles finished and were
// checkpointed, and RunContext returned the partial Result alongside
// this error — the only error RunContext pairs with a non-nil Result.
var ErrDrained = errors.New("flow: run drained before completion")

// Config controls the tiling.
type Config struct {
	// GridN is the pixel count across the full layout.
	GridN int
	// CorePx is the core (owned) region edge of each window; shots whose
	// centers fall here are kept.
	CorePx int
	// HaloPx is the optical context margin added on every side of a core;
	// it should exceed the optical interaction range (~λ/NA ≈ 143 nm).
	HaloPx int
	// Optics is the imaging condition; TileNM is overridden per window.
	Optics optics.Config
	// KOpt truncates kernels during per-window optimization.
	KOpt int
	// Workers sets the per-window litho parallelism (see litho.Simulator).
	Workers int
	// TileWorkers bounds the windows optimized concurrently. Zero or one
	// runs serially; negative uses GOMAXPROCS. Each worker owns a private
	// simulator and results are reduced in row-major tile order, so the
	// output is bit-identical at any worker count (assuming the engines
	// are deterministic for a given simulator and target).
	TileWorkers int
	// Engines names the optimizer chain every window runs: registered
	// engine names (internal/engine) plus their knobs. It is the only
	// description of the optimizer. RunContext resolves it once through
	// engine.FromMeta and fails before any tile runs when a name is not
	// registered; worker subprocesses, TCP hosts and bundle replay
	// resolve the same names through the same registry. Because it is
	// the whole description, the cache key, the checkpoint fingerprint
	// and the worker handshake hash exactly what runs.
	//
	// Engines.Primary runs first, with TileRetries retries. When it
	// keeps failing, Engines.Fallback (if set) runs once — typically a
	// cheaper, hardier engine such as rule-based fracturing of the
	// rasterized target (circlerule) standing in for circleopt. If that
	// also fails, the tile degrades to empty.
	Engines quarantine.EngineMeta

	// TileRetries is how many extra times a failed window is re-attempted
	// with the primary engine before degrading. Zero means one attempt
	// only.
	TileRetries int
	// TileTimeout bounds the wall time of a single optimizer attempt.
	// A timed-out attempt counts as a failure (and is retried / degraded
	// like one); zero disables the deadline.
	TileTimeout time.Duration
	// StallTimeout bounds the gap between optimizer heartbeats within a
	// single attempt. Engines emit one heartbeat per iteration
	// (opt.Beat); when the stream goes quiet for this long the attempt
	// is killed as stalled — distinguishing a wedged optimizer from a
	// legitimately slow one, which TileTimeout alone cannot. The attempt
	// start counts as the first heartbeat, so enable this only with
	// engines that heartbeat (or finish) faster than the window. Zero
	// disables the watchdog. Must not exceed a non-zero TileTimeout.
	StallTimeout time.Duration
	// RMinPx / RMaxPx bound valid shot radii (in window-grid pixels) for
	// output validation; a shot outside [RMinPx, RMaxPx] fails the tile.
	// Both zero disables the radius check.
	RMinPx, RMaxPx float64
	// CheckpointPath, when non-empty, journals every completed tile
	// (shots + stat) so an interrupted run resumes instead of restarting.
	// The journal is bound to the (layout, tiling) fingerprint: reusing a
	// path across different runs is an error, not silent corruption.
	CheckpointPath string
	// PartialEvery, when > 0 and checkpointing is on, additionally
	// journals a snapshot of snapshot-capable optimizers (CircleOpt's
	// circle parameters plus Adam state) every that many iterations, so
	// a killed run resumes a half-finished tile mid-optimization instead
	// of from scratch. Superseded snapshots are dropped by
	// CompactCheckpoint.
	PartialEvery int
	// QuarantineDir, when non-empty, receives a self-contained repro
	// bundle (internal/quarantine) for every tile that degrades to
	// empty. A bundle write failure loses that tile's forensics but
	// never the tile or the run: the drop is counted in
	// Result.QuarantineDropped (StrictStorage restores fail-fast).
	QuarantineDir string

	// FS is the filesystem seam for the run's persistence side effects —
	// checkpoint journal, quarantine bundles — used by fault-injection
	// and crash-consistency tests. Nil means the real filesystem. The
	// dedup cache carries its own seam (wcache.Config.FS), since the
	// cache object usually outlives one run.
	FS iox.FS
	// StrictStorage restores the pre-degradation policy: a checkpoint
	// append/sync failure or a quarantine bundle write failure fails the
	// run instead of degrading it. Default false — an OPC run that has
	// burned hours of compute finishes correct-but-unresumable rather
	// than dying because the disk filled.
	StrictStorage bool
	// Faults, when non-nil, wraps both engines with deterministic fault
	// injection keyed on (tile, attempt) AND records each tile's script
	// into its worker task and quarantine bundle, so workers and
	// replays re-inject the same failures. It is the only fault
	// injector.
	Faults FaultPlan

	// KeepMask materializes Result.Mask, a dense GridN² re-rasterization
	// of the stitched shot list. The shot list is the primary output; on
	// real full-chip grids the dense mask is the memory ceiling, so it is
	// opt-in. Leave it false and set MaskWriter to stream the mask in
	// O(GridN·CorePx) bands instead.
	KeepMask bool
	// MaskWriter, when non-nil, receives the stitched mask as ordered
	// horizontal bands (one per tile row) whose concatenation is
	// byte-identical to the KeepMask dense mask. With RMaxPx set, bands
	// stream out as their contributing tile rows complete; without a
	// radius bound they are all emitted when the last tile finishes.
	MaskWriter MaskWriter

	// ProcWorkers, when > 0, dispatches tiles to that many supervised
	// worker subprocesses instead of in-process goroutines, so a
	// process-fatal tile failure (OOM kill, runtime fatal, wedged FFT)
	// costs one dispatch, not the run. Each worker slot detects
	// crash/EOF/heartbeat silence, respawns its process with exponential
	// backoff and jitter, and circuit-breaks to the in-process
	// degradation ladder after ProcCrashLimit consecutive failures — the
	// run always completes. The determinism contract extends across the
	// process boundary: for any mix of proc and in-process execution,
	// crashes, respawns, and checkpoint resume, the stitched shot list
	// and streamed bands are byte-identical to the serial in-process
	// run. TileWorkers is ignored when ProcWorkers is set.
	ProcWorkers int
	// WorkerCmd builds one worker subprocess command (required when
	// ProcWorkers > 0; must be safe to call concurrently). The
	// supervisor forces procpool.WorkerEnv=1 into its environment; the
	// child must detect that (procpool.InWorker) and serve frames on
	// stdin/stdout — cmd/tileworker, or any binary that calls
	// ServeIfWorker first thing in main.
	WorkerCmd func() *exec.Cmd
	// ProcCrashLimit is how many consecutive failed dispatches break a
	// worker slot to in-process execution. Zero means the default (3).
	ProcCrashLimit int
	// ProcSilence kills a worker that emits no frame (ping, heartbeat,
	// snapshot, reply) for this long while a task is in flight — the
	// cross-process analogue of StallTimeout, catching a process that is
	// alive but wedged beyond even its ping loop. Zero means the default
	// (10s); it should comfortably exceed the worker's ~100ms ping
	// cadence.
	ProcSilence time.Duration
	// ProcBackoff is the base delay before respawning a crashed worker;
	// it doubles per consecutive crash (capped at 2s) with jitter so a
	// crash-looping fleet does not respawn in lockstep. Zero means the
	// default (50ms).
	ProcBackoff time.Duration

	// RemoteHosts, when non-empty, shards tiles across TCP tile-worker
	// hosts (cmd/tileworker -listen) instead of local subprocesses: one
	// supervised slot per host, speaking the same frame protocol over
	// the network. The PR 5 supervisor machinery carries over with the
	// transport swapped — respawn becomes reconnect with exponential
	// backoff + jitter, the silence watchdog covers dead links and
	// stalled remotes, and a per-host circuit breaker degrades a
	// flapping host's tiles to the local in-process ladder (and, with
	// RemoteCooldown, probes it again later). The determinism contract
	// is unchanged: results reduce in row-major tile order and resume
	// state is journal-keyed, so shots, streamed bands and checkpoints
	// are byte-identical for any host mix, reconnect history, and
	// interrupt+resume — including a run where zero hosts are reachable,
	// which completes entirely on the local ladder. Mutually exclusive
	// with ProcWorkers.
	RemoteHosts []string
	// RemoteDial overrides the transport used to reach RemoteHosts
	// (tests route through in-memory pipes or a chaos proxy). Nil dials
	// plain TCP.
	RemoteDial func(ctx context.Context, addr string) (net.Conn, error)
	// RemoteSilence is the per-link silence watchdog: a host that sends
	// no frame for this long while a task is in flight is presumed dead
	// or partitioned and its link is cut. Zero means the default (10s).
	RemoteSilence time.Duration
	// RemoteBackoff is the base reconnect delay; it doubles per
	// consecutive failure (capped at 2s) with jitter. Zero means the
	// default (50ms).
	RemoteBackoff time.Duration
	// RemoteCrashLimit is how many consecutive failed dispatches open a
	// host's circuit breaker. Zero means the default (3).
	RemoteCrashLimit int
	// RemoteCooldown is how long an open breaker waits before letting
	// one probe dispatch through (half-open) — a degraded host can
	// rejoin the run. Zero means the default (5s); negative makes the
	// breaker terminal like a subprocess slot's.
	RemoteCooldown time.Duration
	// RemoteHandshake bounds each dial + Hello exchange. Zero means the
	// default (5s).
	RemoteHandshake time.Duration

	// Cache, when non-nil, is the window dedup cache: each eligible tile
	// is keyed by a canonical content hash (window target raster, owning
	// rect spans in window-local coordinates, core geometry, and the
	// run's config fingerprint), and a hit translates the cached
	// window-local shots into place instead of re-optimizing. The cache
	// changes wall time only — shots, streamed bands, and checkpoint
	// journals are byte-identical with the cache on or off, because the
	// key covers every input the (deterministic) optimizer sees. Tiles
	// with an injected fault script bypass the cache in both directions,
	// as do tiles resuming from a partial checkpoint snapshot (they must
	// replay their journaled trajectory). Only real results are stored;
	// a tile that degraded to empty is never served to a twin.
	Cache *wcache.Cache

	// AdaptiveTiles plans the tiling from layout occupancy instead of a
	// uniform CorePx grid: sparse 2×2 blocks merge into one large tile,
	// dense cells split into four small ones, and provably-empty regions
	// are skipped without rasterizing. The plan is deterministic (from
	// layout.WindowIndex occupancy) and sorted row-major, so determinism,
	// checkpointing, and band streaming all hold exactly as in uniform
	// mode; the adaptive knobs are part of the checkpoint fingerprint, so
	// a journal can't silently cross tiling modes.
	AdaptiveTiles bool
	// AdaptiveMergeMax is the maximum merged-window occupancy fraction
	// for a 2×2 merge (default 0.02); AdaptiveSplitMin is the minimum
	// window occupancy fraction that splits a cell (default 0.35; split
	// requires even CorePx). Both are fractions of window pixel area.
	AdaptiveMergeMax float64
	AdaptiveSplitMin float64

	// Drain, when non-nil and closed mid-run, stops dispatching new
	// tiles: in-flight tiles finish and are journaled, the checkpoint is
	// synced, and RunContext returns its partial Result with ErrDrained.
	// This is the graceful half of two-stage shutdown; hard cancellation
	// stays on the context.
	Drain <-chan struct{}

	// Events, when non-nil, receives the run's live progress stream:
	// one EventBeat per optimizer heartbeat (forwarded across the
	// process and network boundaries in proc/remote mode) and exactly
	// one EventTile per completed tile, journal-replayed tiles
	// included. Events are observability only — they never alter the
	// result, and the run does not wait on the sink. See EventSink for
	// the concurrency contract the callback must honor.
	Events EventSink

	// QuarantineMaxBundles / QuarantineMaxBytes bound the quarantine
	// directory: after each bundle write the oldest .qrb+.json pairs are
	// pruned until both budgets hold (zero = unlimited on that axis).
	// The just-written bundle is the newest, so it always survives.
	QuarantineMaxBundles int
	QuarantineMaxBytes   int64
}

// procCrashLimit / procSilence / procBackoff resolve the supervision
// defaults documented on Config.
func (cfg Config) procCrashLimit() int {
	if cfg.ProcCrashLimit > 0 {
		return cfg.ProcCrashLimit
	}
	return 3
}

func (cfg Config) procSilence() time.Duration {
	if cfg.ProcSilence > 0 {
		return cfg.ProcSilence
	}
	return 10 * time.Second
}

func (cfg Config) procBackoff() time.Duration {
	if cfg.ProcBackoff > 0 {
		return cfg.ProcBackoff
	}
	return 50 * time.Millisecond
}

// remoteSilence / remoteBackoff / remoteCrashLimit / remoteCooldown /
// remoteHandshake resolve the remote-transport defaults documented on
// Config.
func (cfg Config) remoteSilence() time.Duration {
	if cfg.RemoteSilence > 0 {
		return cfg.RemoteSilence
	}
	return 10 * time.Second
}

func (cfg Config) remoteBackoff() time.Duration {
	if cfg.RemoteBackoff > 0 {
		return cfg.RemoteBackoff
	}
	return 50 * time.Millisecond
}

func (cfg Config) remoteCrashLimit() int {
	if cfg.RemoteCrashLimit > 0 {
		return cfg.RemoteCrashLimit
	}
	return 3
}

func (cfg Config) remoteCooldown() time.Duration {
	if cfg.RemoteCooldown < 0 {
		return 0 // terminal breaker, like a subprocess slot
	}
	if cfg.RemoteCooldown > 0 {
		return cfg.RemoteCooldown
	}
	return 5 * time.Second
}

func (cfg Config) remoteHandshake() time.Duration {
	if cfg.RemoteHandshake > 0 {
		return cfg.RemoteHandshake
	}
	return 5 * time.Second
}

// resolveEngines builds the optimizer chain cfg.Engines names — the one
// place in the flow a name becomes code, shared by RunContext, worker
// tasks and replay — and wraps it with cfg.Faults. Both the primary and
// the fallback see the same plan; attempt indices are global per tile
// (fallback = TileRetries+1), so one script drives the whole
// degradation trajectory.
func resolveEngines(cfg Config) (primary, fallback engine.Optimizer, err error) {
	if cfg.Engines.Primary == "" {
		return nil, nil, fmt.Errorf("flow: no optimizer (Config.Engines.Primary is empty)")
	}
	primary, fallback, err = engine.FromMeta(cfg.Engines)
	if err != nil {
		return nil, nil, fmt.Errorf("flow: %w", err)
	}
	if cfg.Faults != nil {
		primary = injectFaults(primary, cfg.Faults)
		if fallback != nil {
			fallback = injectFaults(fallback, cfg.Faults)
		}
	}
	return primary, fallback, nil
}

// Outcome paths recorded in TileStat.Path.
const (
	PathPrimary  = "primary"  // the primary engine succeeded (possibly after retries)
	PathFallback = "fallback" // the primary exhausted its retries; the fallback succeeded
	PathEmpty    = "empty"    // both failed; the tile contributes no shots
)

// TileStat records what one window contributed to the stitched result.
type TileStat struct {
	Index    int           // row-major window index (plan order)
	CX, CY   int           // core origin in full-grid pixels
	Core     int           // core edge in px (adaptive tiles differ from Config.CorePx)
	Window   int           // window edge in px (core + 2·halo)
	Occupied bool          // window held target geometry and was optimized
	Shots    int           // core-owned shots kept from this window
	Wall     time.Duration // wall time spent on this window
	// RasterWall is the slice of Wall spent rasterizing the window target
	// from the rect geometry (the streaming replacement for extracting it
	// out of a full-grid raster).
	RasterWall time.Duration

	Attempts int // optimizer invocations (primary + fallback); 0 if unoccupied
	Path     string
	// Failure joins every failed attempt's error (attempt-indexed, in
	// order), capped at maxFailureBytes so pathological error strings
	// cannot bloat checkpoints or stats. "" when the first attempt
	// succeeded.
	Failure string
	Resumed bool // replayed from the checkpoint journal, not recomputed

	Iters    int     // optimizer heartbeats received across all attempts
	LastLoss float64 // loss reported by the most recent heartbeat
	Stalled  bool    // some attempt was killed by the stall watchdog
	// Bundle is the quarantine repro bundle path for a tile that
	// degraded to empty ("" otherwise, or when no QuarantineDir is set).
	Bundle string

	// Proc marks a tile whose final result came from a worker
	// subprocess; a tile computed in-process (serial mode, or a
	// circuit-broken slot) leaves it false.
	Proc bool
	// Host is the remote host that produced this tile's final result
	// ("" for subprocess, in-process, and breaker-degraded tiles).
	// Provenance only: the result bytes are host-independent.
	Host string
	// ProcCrashes counts failed dispatches (worker death, silence kill,
	// or a worker-reported task error) suffered while this tile was in
	// flight; the tile still completed through respawn or the
	// in-process breaker path.
	ProcCrashes int

	// CacheHit marks a tile answered by translating a cached twin's
	// shots instead of optimizing; its Path/Attempts/Iters/LastLoss are
	// inherited from the twin's record. CacheKey is the canonical
	// content hash computed for every cache-eligible tile (hit or miss);
	// "" when the cache was off or the tile was excluded (fault script,
	// skip tile).
	CacheHit bool
	CacheKey string
}

// Result is the stitched output.
type Result struct {
	// Mask is the full-grid mask re-rasterized from the shots — nil
	// unless Config.KeepMask asked for it (streamed runs never hold a
	// dense full-grid mask).
	Mask      *grid.Real
	Shots     []geom.Circle // full-grid shot list
	Tiles     int           // number of windows optimized
	TileStats []TileStat    // per-window records in row-major order

	Retried     int // tiles that needed >1 attempt but still finished on the primary
	Fallbacks   int // tiles that degraded to the fallback engine
	Empty       int // tiles degraded to empty after every optimizer failed
	Resumed     int // tiles replayed from the checkpoint journal
	Stalled     int // tiles where the stall watchdog killed an attempt
	Quarantined int // tiles that wrote a quarantine repro bundle

	// Completed counts tiles accounted for (computed or replayed); it
	// equals Tiles except on a drained run.
	Completed int
	// ProcCrashes totals failed worker dispatches across the run;
	// Broken counts worker slots that circuit-broke to in-process
	// execution. Both stay zero without ProcWorkers.
	ProcCrashes int
	Broken      int
	// RemoteCrashes totals failed remote dispatches (connect failures,
	// link drops, silence kills, rejected handshakes); RemoteBroken
	// counts breaker-open episodes across hosts (a host that degrades,
	// heals, and degrades again counts twice). Both stay zero without
	// RemoteHosts.
	RemoteCrashes int
	RemoteBroken  int

	// CacheHits / CacheMisses count cache lookups by freshly processed
	// tiles (replayed-from-journal tiles perform none); CacheBytes is
	// the cache's resident in-memory size at run end. All zero when
	// Config.Cache is nil.
	CacheHits   int
	CacheMisses int
	CacheBytes  int64

	// Merged / Split / Skipped describe the adaptive plan: 2×2 blocks
	// fused into one tile, cells fractured into four, and tiles proven
	// empty by the occupancy scan (never rasterized). All zero in
	// uniform mode.
	Merged  int
	Split   int
	Skipped int

	// PeakBytes estimates the peak bytes of flow-owned buffers held
	// resident during the run: the layout span index, one window target
	// per tile worker, the in-flight mask band (when streaming), the
	// dense mask (when kept) and the stitched shot list. Optimizer- and
	// simulator-internal allocations are not counted; the estimate's job
	// is to make the O(window²) vs O(GridN²) scaling observable.
	PeakBytes int64

	// CheckpointDegraded marks a run whose checkpoint journal suffered a
	// write or sync failure after opening: the run's outputs are still
	// complete and correct, but tiles finished after the failure were
	// not journaled, so a crash would re-optimize them. CheckpointErr
	// holds the first storage error. Both zero under StrictStorage
	// (the run fails instead) and on healthy storage.
	CheckpointDegraded bool
	CheckpointErr      string
	// QuarantineDropped counts empty tiles whose repro bundle could not
	// be written (disk fault); the tiles themselves completed normally.
	QuarantineDropped int
}

// maxFailureBytes caps TileStat.Failure; maxAttemptErrBytes caps each
// individual attempt error as recorded in outcomes and bundles.
const (
	maxFailureBytes    = 1024
	maxAttemptErrBytes = 2048
)

// tileWorkerCount resolves the effective tile parallelism.
func tileWorkerCount(w, jobs int) int {
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// extractWindow copies the window×window region at origin (ox, oy) out of
// the full rasterized layout into a fresh target grid, reporting whether
// any pixel is occupied. The origin may be negative and the window may
// extend past the grid at the borders; out-of-grid pixels stay empty.
func extractWindow(full *grid.Real, ox, oy, window int) (*grid.Real, bool) {
	target := grid.NewReal(window, window)
	occupied := false
	for y := 0; y < window; y++ {
		fy := oy + y
		if fy < 0 || fy >= full.H {
			continue
		}
		for x := 0; x < window; x++ {
			fx := ox + x
			if fx < 0 || fx >= full.W {
				continue
			}
			v := full.Data[fy*full.W+fx]
			target.Data[y*window+x] = v
			if v > 0.5 {
				occupied = true
			}
		}
	}
	return target, occupied
}

// ownedShots translates window-local shots to full-grid coordinates and
// keeps those whose centers fall in the core [cx, cx+corePx) × [cy,
// cy+corePx) — the ownership rule that makes seam shots unique.
func ownedShots(shots []geom.Circle, ox, oy, cx, cy, corePx int) []geom.Circle {
	var kept []geom.Circle
	for _, s := range shots {
		gx := s.X + float64(ox)
		gy := s.Y + float64(oy)
		if gx < float64(cx) || gx >= float64(cx+corePx) ||
			gy < float64(cy) || gy >= float64(cy+corePx) {
			continue
		}
		kept = append(kept, geom.Circle{X: gx, Y: gy, R: s.R})
	}
	return kept
}

// tileJob identifies one window by its plan index, core origin, and —
// since tiling went adaptive — its own core/window edges. skip marks a
// tile the occupancy scan proved empty: no rasterization, no optimizer,
// no shots.
type tileJob struct {
	index  int
	cx, cy int
	core   int // core edge in px
	window int // window edge in px (core + 2·halo)
	skip   bool
}

// tileOut is one window's contribution before the ordered reduce. raw
// holds the full window-local shot list (pre-ownership-filter) so a
// fresh result can be published to the dedup cache for twins with any
// core placement.
type tileOut struct {
	shots []geom.Circle
	raw   []geom.Circle
	stat  TileStat
}

// runEnv is the per-run state shared by every tile worker: the config
// and the optimizer chain resolved from it (faults injected), the
// layout and its span index, the open journal and the partial snapshots
// replayed from it, plus an error channel for asynchronous failures
// (journal appends, bundle saves). RunWindow builds a minimal env with
// no layout, index or journal.
type runEnv struct {
	cfg       Config
	primary   engine.Optimizer               // resolved from cfg.Engines, cfg.Faults wrapped in
	fallback  engine.Optimizer               // nil when cfg.Engines names none
	opticsFor func(window int) optics.Config // per-window-size imaging condition
	lay       *layout.Layout
	fp        []byte
	keyPrefix string // config fingerprint: the dedup cache key prefix
	ix        *layout.WindowIndex
	fsys      iox.FS // resolved Config.FS (never nil in a tiled run)
	journal   *checkpoint.Journal
	partials  map[int]partialRecord
	errCh     chan error

	// Checkpoint degradation state: on the first journal write/sync
	// failure (without StrictStorage) the run records the cause, stops
	// journaling, and keeps computing — correct but un-resumable.
	ckptOnce    sync.Once
	ckptDead    atomic.Bool
	ckptErr     atomic.Value // string: first storage error
	quarDropped atomic.Int64 // bundles lost to storage faults

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// partialSink receives mid-attempt optimizer snapshots (journal
	// append in a tiled run, a wire frame in a worker); nil disables
	// snapshotting regardless of PartialEvery.
	partialSink func(index, attempt int, s opt.Snapshot)
	// onBeat, when non-nil, observes every optimizer heartbeat in
	// addition to the per-attempt stall watchdog — a worker forwards
	// them to its supervisor as liveness frames.
	onBeat func(index, iter int, loss float64)
	// events is Config.Events: the run's progress subscriber (nil when
	// nobody is listening).
	events EventSink
	// dispatch is published on TileInfo (always 0 in-process; a
	// worker's redispatch counter otherwise).
	dispatch int

	// Proc mode: one shared set of in-process simulators (one per
	// window size in the plan) serves every circuit-broken slot
	// (serialized by fbMu), and the crash/breaker totals accumulate
	// across slots.
	fbSims      map[int]*litho.Simulator
	fbMu        sync.Mutex
	quarMu      sync.Mutex // serializes bundle saves with retention pruning
	procCrashes atomic.Int64
	procBroken  atomic.Int64
	// Remote mode keeps its own totals so a mixed report stays honest
	// about which transport suffered.
	remoteCrashes atomic.Int64
	remoteBroken  atomic.Int64
}

// reportErr surfaces the first asynchronous failure; later ones drop.
func (env *runEnv) reportErr(err error) {
	if env.errCh == nil {
		return
	}
	select {
	case env.errCh <- err:
	default:
	}
}

// degradeCheckpoint handles a journal write/sync failure per the
// durability contract: under StrictStorage it fails the run; otherwise
// it poisons journaling for the rest of the run (first cause recorded,
// later tiles simply skip the append) and the run finishes correct but
// un-resumable. The journal fd itself is already poisoned by
// internal/checkpoint, so nothing ever retries an fsync that failed.
func (env *runEnv) degradeCheckpoint(err error) {
	if env.cfg.StrictStorage {
		env.reportErr(fmt.Errorf("checkpoint append: %w", err))
		return
	}
	env.ckptOnce.Do(func() {
		env.ckptErr.Store(err.Error())
		env.ckptDead.Store(true)
	})
}

// journalHealthy reports whether checkpoint appends should still be
// attempted.
func (env *runEnv) journalHealthy() bool {
	return env.journal != nil && !env.ckptDead.Load()
}

// validateTile rejects optimizer output that would poison the stitched
// result: NaN/Inf masks, non-finite shots, radii outside [RMinPx, RMaxPx]
// and centers outside the window. Coordinates here are window-local.
func validateTile(mask *grid.Real, shots []geom.Circle, cfg Config, window int) error {
	if mask != nil {
		if mask.W != window || mask.H != window {
			return fmt.Errorf("mask %dx%d, window %d", mask.W, mask.H, window)
		}
		if mask.HasNaN() {
			return fmt.Errorf("mask has NaN/Inf pixels")
		}
	}
	const eps = 1e-9
	for i, s := range shots {
		if !finite(s.X) || !finite(s.Y) || !finite(s.R) {
			return fmt.Errorf("shot %d not finite: %+v", i, s)
		}
		if s.X < 0 || s.X > float64(window) || s.Y < 0 || s.Y > float64(window) {
			return fmt.Errorf("shot %d center (%g, %g) outside window %d", i, s.X, s.Y, window)
		}
		if cfg.RMinPx > 0 || cfg.RMaxPx > 0 {
			if s.R < cfg.RMinPx-eps || s.R > cfg.RMaxPx+eps {
				return fmt.Errorf("shot %d radius %g outside [%g, %g]", i, s.R, cfg.RMinPx, cfg.RMaxPx)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// beatState accumulates one attempt's heartbeat stream. The optimizer
// goroutine writes through beat while the watchdog goroutine polls
// lastBeat, hence the lock.
type beatState struct {
	mu    sync.Mutex
	last  time.Time
	iters int
	loss  float64
}

func newBeatState() *beatState { return &beatState{last: time.Now()} }

func (b *beatState) beat(iter int, loss float64, at time.Time) {
	b.mu.Lock()
	b.last = at
	b.iters++
	b.loss = loss
	b.mu.Unlock()
}

func (b *beatState) lastBeat() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

func (b *beatState) totals() (iters int, loss float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.iters, b.loss
}

// watchdog cancels the attempt with ErrStalled when the heartbeat
// stream goes quiet for longer than stallAfter. Polling at a fraction
// of the window bounds detection latency to ~1.13·stallAfter.
func watchdog(tctx context.Context, cancel context.CancelCauseFunc, hb *beatState, stallAfter time.Duration, stop <-chan struct{}) {
	period := stallAfter / 8
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tctx.Done():
			return
		case <-tick.C:
			if time.Since(hb.lastBeat()) > stallAfter {
				cancel(fmt.Errorf("%w: no heartbeat within %s", ErrStalled, stallAfter))
				return
			}
		}
	}
}

// attemptTile runs one optimizer invocation in isolation: a panic or
// invalid output becomes an error, the per-attempt wall deadline and
// the heartbeat stall watchdog are enforced through the simulator's
// cooperative context, and the tile's identity is published on that
// context for fault-injection harnesses. The returned outcome records
// the attempt for stats, bundles and replay comparison.
func (env *runEnv) attemptTile(ctx context.Context, sim *litho.Simulator, optimize engine.Optimizer,
	target *grid.Real, j tileJob, attempt int, rung string) ([]geom.Circle, quarantine.Attempt) {
	cfg := env.cfg
	out := quarantine.Attempt{Index: attempt, Engine: rung}
	tctx := ctx
	if cfg.TileTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, cfg.TileTimeout)
		defer cancel()
	}
	tctx, cancelCause := context.WithCancelCause(tctx)
	defer cancelCause(nil)
	tctx = context.WithValue(tctx, tileInfoKey{}, TileInfo{
		Index: j.index, Attempt: attempt, CX: j.cx, CY: j.cy, Dispatch: env.dispatch,
	})
	hb := newBeatState()
	beat := hb.beat
	if env.onBeat != nil {
		index := j.index
		beat = func(iter int, loss float64, at time.Time) {
			hb.beat(iter, loss, at)
			env.onBeat(index, iter, loss)
		}
	}
	tctx = opt.WithProgress(tctx, beat)
	if env.partialSink != nil && cfg.PartialEvery > 0 {
		index := j.index
		tctx = opt.WithSnapshots(tctx, func(s opt.Snapshot) {
			// A canceled attempt's parameters are garbage-contaminated
			// (the simulator aborts mid-kernel); journaling them would
			// poison the resume. Only live snapshots go to disk.
			if tctx.Err() != nil {
				return
			}
			env.partialSink(index, attempt, s)
		}, cfg.PartialEvery)
	}
	if p, ok := env.partials[j.index]; ok && p.Attempt == attempt {
		tctx = opt.WithResume(tctx, opt.Snapshot{
			Iter: p.Iter, Loss: p.Loss, Params: p.Params,
			OptT: p.OptT, OptM: p.OptM, OptV: p.OptV,
		})
	}
	if cfg.StallTimeout > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go watchdog(tctx, cancelCause, hb, cfg.StallTimeout, stop)
	}

	shots, err := runGuarded(tctx, sim, optimize, target, cfg, target.W)
	out.Iters, out.LastLoss = hb.totals()
	if err != nil {
		if errors.Is(err, ErrStalled) {
			out.Stalled = true
		}
		out.Err = capString(err.Error(), maxAttemptErrBytes)
		return nil, out
	}
	return shots, out
}

// runGuarded executes one optimizer call under panic recovery, checks
// the cooperative context afterwards (a canceled attempt's output is
// untrusted), and validates the output.
func runGuarded(tctx context.Context, sim *litho.Simulator, optimize engine.Optimizer,
	target *grid.Real, cfg Config, window int) (shots []geom.Circle, err error) {
	sim.Ctx = tctx
	defer func() {
		sim.Ctx = nil
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	mask, shots := optimize(sim, target)
	if cerr := tctx.Err(); cerr != nil {
		// Canceled, timed out, or stall-killed mid-attempt: the output is
		// untrusted. The cancellation cause distinguishes the watchdog
		// (ErrStalled) from the wall deadline and run-level cancel.
		if cause := context.Cause(tctx); cause != nil && !errors.Is(cause, cerr) {
			return nil, cause
		}
		return nil, cerr
	}
	if verr := validateTile(mask, shots, cfg, window); verr != nil {
		return nil, fmt.Errorf("invalid output: %w", verr)
	}
	return shots, nil
}

// attemptSequence walks the degradation ladder for one window: primary
// with retries, then the fallback, then empty. It returns window-local
// shots, the outcome path ("" when the run was canceled mid-tile) and
// the per-attempt history.
func (env *runEnv) attemptSequence(ctx context.Context, sim *litho.Simulator, j tileJob,
	target *grid.Real) (shots []geom.Circle, path string, outcomes []quarantine.Attempt) {
	cfg := env.cfg
	for attempt := 0; attempt <= cfg.TileRetries; attempt++ {
		if ctx.Err() != nil {
			return nil, "", outcomes // run canceled: abandon, don't degrade
		}
		s, out := env.attemptTile(ctx, sim, env.primary, target, j, attempt, "primary")
		outcomes = append(outcomes, out)
		if out.Err == "" {
			return s, PathPrimary, outcomes
		}
		if ctx.Err() != nil {
			return nil, "", outcomes
		}
	}
	if env.fallback != nil {
		s, out := env.attemptTile(ctx, sim, env.fallback, target, j, cfg.TileRetries+1, "fallback")
		outcomes = append(outcomes, out)
		if out.Err == "" {
			return s, PathFallback, outcomes
		}
		if ctx.Err() != nil {
			return nil, "", outcomes
		}
	}
	// Graceful floor: the window contributes nothing, the run survives.
	return nil, PathEmpty, outcomes
}

// applyOutcomes folds the attempt history into the tile stat.
func applyOutcomes(st *TileStat, outcomes []quarantine.Attempt) {
	st.Attempts = len(outcomes)
	for _, o := range outcomes {
		st.Iters += o.Iters
		if o.Iters > 0 {
			st.LastLoss = o.LastLoss
		}
		if o.Stalled {
			st.Stalled = true
		}
	}
	st.Failure = joinFailures(outcomes)
}

// joinFailures renders the attempt-indexed error history, capped so a
// pathological error string can't bloat checkpoints or stats.
func joinFailures(outcomes []quarantine.Attempt) string {
	var b strings.Builder
	for _, o := range outcomes {
		if o.Err == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "attempt %d (%s): %s", o.Index, o.Engine, o.Err)
		if b.Len() > maxFailureBytes {
			break
		}
	}
	return capString(b.String(), maxFailureBytes)
}

func capString(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + " …[truncated]"
}

// runTile rasterizes, optimizes and filters one window, degrading
// through retry → fallback → empty instead of failing the run. The
// window target is rasterized on demand from the layout's span index —
// the streaming path; no full-grid raster exists anywhere. When ctx is
// canceled the tile is abandoned (stat.Path stays empty); Run turns that
// into ctx.Err() for the whole run. A tile that lands on PathEmpty
// writes its quarantine bundle here, from the worker that watched it
// fail.
func (env *runEnv) runTile(ctx context.Context, sims map[int]*litho.Simulator, j tileJob) (out tileOut) {
	start := time.Now()
	cfg := env.cfg
	out = tileOut{stat: TileStat{Index: j.index, CX: j.cx, CY: j.cy, Core: j.core, Window: j.window}}
	// The named result lets the deferred stamp reach the returned value.
	defer func() { out.stat.Wall = time.Since(start) }()
	if j.skip {
		// The occupancy scan proved this window empty at plan time; it
		// contributes exactly what an unoccupied tile always has.
		return out
	}
	ox := j.cx - cfg.HaloPx
	oy := j.cy - cfg.HaloPx
	target, occupied := env.ix.Window(ox, oy, j.window, j.window)
	out.stat.Occupied = occupied
	out.stat.RasterWall = time.Since(start)
	if !occupied {
		return out
	}
	if env.tryCache(j, target, &out) {
		return out
	}
	env.ladder(ctx, sims[j.window], j, target, &out)
	env.storeCache(j, &out)
	return out
}

// ladder walks the in-process degradation sequence for one rasterized
// window and folds the outcome into out — the shared tail of runTile
// and a circuit-broken proc slot.
func (env *runEnv) ladder(ctx context.Context, sim *litho.Simulator, j tileJob,
	target *grid.Real, out *tileOut) {
	cfg := env.cfg
	ox := j.cx - cfg.HaloPx
	oy := j.cy - cfg.HaloPx
	shots, path, outcomes := env.attemptSequence(ctx, sim, j, target)
	out.stat.Path = path
	applyOutcomes(&out.stat, outcomes)
	switch path {
	case PathPrimary, PathFallback:
		out.raw = shots
		out.shots = ownedShots(shots, ox, oy, j.cx, j.cy, j.core)
		out.stat.Shots = len(out.shots)
	case PathEmpty:
		env.saveQuarantine(j, target, outcomes, &out.stat)
	}
}

// saveQuarantine writes the repro bundle for a tile that degraded to
// empty and then enforces the retention budget. Saves and prunes are
// serialized under quarMu so concurrent empty tiles cannot race the
// budget accounting.
func (env *runEnv) saveQuarantine(j tileJob, target *grid.Real, outcomes []quarantine.Attempt, st *TileStat) {
	cfg := env.cfg
	if cfg.QuarantineDir == "" {
		return
	}
	env.quarMu.Lock()
	defer env.quarMu.Unlock()
	bpath, err := quarantine.SaveFS(env.fsys, cfg.QuarantineDir, env.buildBundle(j, target, outcomes))
	if err != nil {
		// Losing the bundle loses forensics, never the tile: the empty
		// result is already folded in, so the run continues and the drop
		// is counted (StrictStorage restores the old fail-fast policy).
		if cfg.StrictStorage {
			env.reportErr(fmt.Errorf("quarantine: %w", err))
		} else {
			env.quarDropped.Add(1)
		}
		return
	}
	st.Bundle = bpath
	if cfg.QuarantineMaxBundles > 0 || cfg.QuarantineMaxBytes > 0 {
		if _, perr := quarantine.Prune(cfg.QuarantineDir, cfg.QuarantineMaxBundles, cfg.QuarantineMaxBytes); perr != nil {
			if cfg.StrictStorage {
				env.reportErr(perr)
			} else {
				env.quarDropped.Add(1)
			}
		}
	}
}

// buildBundle assembles the self-contained repro artifact for a tile
// that exhausted every engine.
func (env *runEnv) buildBundle(j tileJob, target *grid.Real, outcomes []quarantine.Attempt) *quarantine.Bundle {
	cfg := env.cfg
	ox := j.cx - cfg.HaloPx
	oy := j.cy - cfg.HaloPx
	b := &quarantine.Bundle{
		FormatVersion: quarantine.FormatVersion,
		Fingerprint:   string(env.fp),
		GridN:         cfg.GridN,
		CorePx:        cfg.CorePx,
		HaloPx:        cfg.HaloPx,
		KOpt:          cfg.KOpt,
		TileRetries:   cfg.TileRetries,
		TileTimeout:   cfg.TileTimeout,
		StallTimeout:  cfg.StallTimeout,
		RMinPx:        cfg.RMinPx,
		RMaxPx:        cfg.RMaxPx,
		Optics:        env.opticsFor(j.window),
		Engines:       cfg.Engines,
		Tile: quarantine.Tile{
			Index: j.index, CX: j.cx, CY: j.cy,
			OriginX: ox, OriginY: oy, WindowPx: j.window,
		},
		TargetW: target.W,
		TargetH: target.H,
		Target:  append([]float64(nil), target.Data...),
	}
	if env.lay != nil {
		b.LayoutName = env.lay.Name
		b.TileNM = env.lay.TileNM
		b.Rects = overlapRects(env.lay, cfg.GridN, ox, oy, j.window)
	}
	b.Faults = append(b.Faults, cfg.Faults[j.index]...)
	b.Attempts = append(b.Attempts, outcomes...)
	return b
}

// overlapRects returns the layout rects (nm coordinates) whose extent
// overlaps the window [ox, ox+window)² given in grid pixels — the
// geometry a repro bundle needs to re-derive its target raster.
func overlapRects(l *layout.Layout, gridN, ox, oy, window int) []layout.Rect {
	dx := float64(l.TileNM) / float64(gridN)
	x0, x1 := float64(ox)*dx, float64(ox+window)*dx
	y0, y1 := float64(oy)*dx, float64(oy+window)*dx
	var out []layout.Rect
	for _, r := range l.Rects {
		if float64(r.X) < x1 && float64(r.X+r.W) > x0 &&
			float64(r.Y) < y1 && float64(r.Y+r.H) > y0 {
			out = append(out, r)
		}
	}
	return out
}

// tileRecord is the gob payload journaled per completed tile.
type tileRecord struct {
	Shots []geom.Circle
	Stat  TileStat
}

// partialRecord journals iteration-level progress inside a long
// snapshot-capable tile (CircleOpt): the flat circle parameters plus
// the Adam state after Iter stage-2 iterations of the given attempt.
// On resume the tile warm-starts from here and — because the optimizer
// state rides along — replays the uninterrupted trajectory exactly.
type partialRecord struct {
	Index   int
	Attempt int
	Iter    int
	Loss    float64
	Params  []float64
	OptT    int
	OptM    []float64
	OptV    []float64
}

// journalRecord frames one checkpoint payload: exactly one of Tile or
// Partial is set.
type journalRecord struct {
	Tile    *tileRecord
	Partial *partialRecord
}

func encodeRecord(rec journalRecord) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeRecord(p []byte) (journalRecord, error) {
	var rec journalRecord
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&rec); err != nil {
		return rec, err
	}
	if (rec.Tile == nil) == (rec.Partial == nil) {
		return rec, fmt.Errorf("record is neither a tile nor a partial")
	}
	return rec, nil
}

// appendPartial journals one mid-tile snapshot. Append is
// concurrency-safe, so snapshot records from parallel tiles interleave
// freely with completed-tile records.
func (env *runEnv) appendPartial(index, attempt int, s opt.Snapshot) {
	if !env.journalHealthy() {
		return
	}
	buf, err := encodeRecord(journalRecord{Partial: &partialRecord{
		Index: index, Attempt: attempt, Iter: s.Iter, Loss: s.Loss,
		Params: s.Params, OptT: s.OptT, OptM: s.OptM, OptV: s.OptV,
	}})
	if err == nil {
		err = env.journal.Append(buf)
	}
	if err != nil {
		env.degradeCheckpoint(fmt.Errorf("partial: %w", err))
	}
}

// configFingerprint hashes every config knob that can change a window's
// optimized output — tiling geometry, validation policy, optics, engine
// metadata, adaptive-plan knobs, and the physical pixel pitch — but no
// layout geometry. It serves two masters: it is the window dedup
// cache's key prefix (layout-free, so identical windows collide across
// layouts and runs), and it is folded into the per-(layout, tiling)
// checkpoint fingerprint below. Config.Engines is the whole description
// of the optimizer chain — the run executes what it names and nothing
// else — so two runs with different engines never share a key. The
// rendered text (including EngineMeta's %+v form) is part of the key:
// changing it orphans every existing .wce cache entry and journal, which
// the golden test in fingerprint_test.go guards against.
func configFingerprint(cfg Config, dxNM float64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "grid=%d core=%d halo=%d kopt=%d retries=%d rmin=%g rmax=%g dx=%g\n",
		cfg.GridN, cfg.CorePx, cfg.HaloPx, cfg.KOpt, cfg.TileRetries, cfg.RMinPx, cfg.RMaxPx, dxNM)
	fmt.Fprintf(h, "optics=%+v\n", cfg.Optics)
	fmt.Fprintf(h, "engines=%+v\n", cfg.Engines)
	// The adaptive knobs are deliberately absent: a window's result
	// depends on its content and geometry (both in the window key), not
	// on how the plan chose to draw it, so uniform and adaptive runs
	// share cache entries. The journal fingerprint below does cover
	// them — tile indices mean different windows across plans.
	return fmt.Sprintf("cfaopc-cfg-v1 %016x", h.Sum64())
}

// fingerprint binds a checkpoint journal to one (layout, tiling,
// engines) triple: the config fingerprint above — which covers the
// optimizer chain — plus the layout identity and geometry, so resuming
// with a different chain fails the header check. v3 added per-tile
// cache/adaptive stats and the config-fingerprint split; v4 added
// remote-host provenance to TileStat — each bump makes older journals
// fail the header check instead of decoding garbage.
func fingerprint(l *layout.Layout, cfg Config) []byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "cfg=%s\n", configFingerprint(cfg, float64(l.TileNM)/float64(cfg.GridN)))
	fmt.Fprintf(h, "adaptive=%v merge=%g split=%g\n",
		cfg.AdaptiveTiles, cfg.AdaptiveMergeMax, cfg.AdaptiveSplitMin)
	fmt.Fprintf(h, "layout=%s tile=%d\n", l.Name, l.TileNM)
	for _, r := range l.Rects {
		fmt.Fprintf(h, "%d,%d,%d,%d\n", r.X, r.Y, r.W, r.H)
	}
	return []byte(fmt.Sprintf("cfaopc-flow-v4 %016x", h.Sum64()))
}

// Run tiles the layout and optimizes every window. It is RunContext with
// a background context.
func Run(l *layout.Layout, cfg Config) (*Result, error) {
	return RunContext(context.Background(), l, cfg)
}

// RunContext is Run under a context: cancellation (SIGINT, deadline)
// stops the worker pool and the in-flight simulations promptly and
// returns ctx.Err(). Completed tiles are still journaled when
// checkpointing is enabled, so a canceled run resumes where it stopped.
func RunContext(ctx context.Context, l *layout.Layout, cfg Config) (*Result, error) {
	switch {
	case cfg.GridN <= 0:
		return nil, fmt.Errorf("flow: invalid grid %d", cfg.GridN)
	case cfg.CorePx <= 0 || cfg.HaloPx < 0:
		return nil, fmt.Errorf("flow: invalid core %d / halo %d", cfg.CorePx, cfg.HaloPx)
	case cfg.TileRetries < 0:
		return nil, fmt.Errorf("flow: negative retries %d", cfg.TileRetries)
	case cfg.StallTimeout < 0 || cfg.PartialEvery < 0:
		return nil, fmt.Errorf("flow: negative stall timeout %s / partial interval %d", cfg.StallTimeout, cfg.PartialEvery)
	case cfg.StallTimeout > 0 && cfg.TileTimeout > 0 && cfg.StallTimeout > cfg.TileTimeout:
		return nil, fmt.Errorf("flow: stall timeout %s exceeds tile timeout %s (the wall deadline would always fire first)",
			cfg.StallTimeout, cfg.TileTimeout)
	case cfg.ProcWorkers < 0:
		return nil, fmt.Errorf("flow: negative proc workers %d", cfg.ProcWorkers)
	case cfg.ProcWorkers > 0 && cfg.WorkerCmd == nil:
		return nil, fmt.Errorf("flow: ProcWorkers set but no WorkerCmd to spawn them with")
	case len(cfg.RemoteHosts) > 0 && cfg.ProcWorkers > 0:
		return nil, fmt.Errorf("flow: RemoteHosts and ProcWorkers are mutually exclusive transports")
	case cfg.AdaptiveMergeMax < 0 || cfg.AdaptiveMergeMax > 1 || cfg.AdaptiveSplitMin < 0 || cfg.AdaptiveSplitMin > 1:
		return nil, fmt.Errorf("flow: adaptive thresholds merge=%g split=%g outside [0, 1]",
			cfg.AdaptiveMergeMax, cfg.AdaptiveSplitMin)
	}
	window := cfg.CorePx + 2*cfg.HaloPx
	if window > cfg.GridN {
		return nil, fmt.Errorf("flow: window %d exceeds grid %d", window, cfg.GridN)
	}
	// Every transport runs the chain these names resolve to — workers
	// resolve them again from the same registry — so an unknown name
	// fails here, before any tile, in every mode.
	primary, fallback, err := resolveEngines(cfg)
	if err != nil {
		return nil, err
	}
	dx := float64(l.TileNM) / float64(cfg.GridN)

	// Optics are shift-invariant, so one kernel set serves every window
	// of a given physical size; with adaptive tiling there are a handful
	// of sizes, each binding its own (cached) kernel set.
	baseOptics := cfg.Optics
	opticsFor := func(w int) optics.Config {
		o := baseOptics
		o.TileNM = float64(w) * dx
		return o
	}

	env := &runEnv{
		cfg:       cfg,
		primary:   primary,
		fallback:  fallback,
		opticsFor: opticsFor,
		lay:       l,
		fp:        fingerprint(l, cfg),
		keyPrefix: configFingerprint(cfg, dx),
		fsys:      iox.OrOS(cfg.FS),
		errCh:     make(chan error, 1),
		events:    cfg.Events,
	}
	if env.events != nil {
		// Heartbeats reach the sink through the same hook a worker
		// supervisor uses, so in-process attempts and forwarded worker
		// beats look identical downstream.
		sink := env.events
		env.onBeat = func(index, iter int, loss float64) {
			sink(Event{Kind: EventBeat, Tile: index, Iter: iter, Loss: loss})
		}
	}

	// Streaming path: no full-grid raster is ever allocated. Workers
	// rasterize each window on demand from the row-bucketed span index,
	// which also feeds the occupancy scan the adaptive plan reads.
	env.ix = layout.NewWindowIndex(l, cfg.GridN)

	plan := planTiles(cfg, env.ix)
	jobs := plan.jobs
	// The full plan, kept intact for by-index lookups (band accounting of
	// journal-replayed tiles) after jobs is filtered down to the
	// remainder.
	allJobs := plan.jobs
	nTiles := len(jobs)
	outs := make([]tileOut, nTiles)
	// Prefill identity so a drained run's stats stay truthful for tiles
	// that were never dispatched.
	for _, j := range jobs {
		outs[j.index].stat = TileStat{Index: j.index, CX: j.cx, CY: j.cy, Core: j.core, Window: j.window}
	}

	var asm *bandAssembler
	if cfg.MaskWriter != nil {
		asm = newBandAssembler(cfg.GridN, cfg.CorePx, plan.perRow, cfg.RMaxPx, cfg.MaskWriter)
	}

	// Replay the checkpoint journal (if any): completed tiles drop out of
	// the job list, and the freshest partial snapshot of each unfinished
	// tile warm-starts its recomputation.
	resumed := 0
	if cfg.CheckpointPath != "" {
		var payloads [][]byte
		journal, payloads, err := checkpoint.OpenFS(cfg.FS, cfg.CheckpointPath, env.fp)
		if err != nil {
			return nil, fmt.Errorf("flow: %w", err)
		}
		defer journal.Close()
		env.journal = journal
		env.partialSink = env.appendPartial
		done := make(map[int]bool, len(payloads))
		partials := make(map[int]partialRecord)
		for _, p := range payloads {
			rec, derr := decodeRecord(p)
			if derr != nil {
				return nil, fmt.Errorf("flow: corrupt checkpoint record: %w", derr)
			}
			switch {
			case rec.Tile != nil:
				idx := rec.Tile.Stat.Index
				if idx < 0 || idx >= nTiles {
					return nil, fmt.Errorf("flow: checkpoint tile %d out of range [0, %d)", idx, nTiles)
				}
				rec.Tile.Stat.Resumed = true
				outs[idx] = tileOut{shots: rec.Tile.Shots, stat: rec.Tile.Stat}
				if !done[idx] {
					done[idx] = true
					resumed++
					// Replayed tiles complete (again) right here, before
					// any worker starts — subscribers see the full tile
					// picture on a resumed run, marked Resumed.
					env.emitTile(idx, rec.Tile.Stat)
				}
			case rec.Partial != nil:
				idx := rec.Partial.Index
				if idx < 0 || idx >= nTiles {
					return nil, fmt.Errorf("flow: checkpoint partial for tile %d out of range [0, %d)", idx, nTiles)
				}
				partials[idx] = *rec.Partial // append order: last snapshot wins
			}
		}
		for idx := range partials {
			if done[idx] {
				delete(partials, idx)
			}
		}
		if len(partials) > 0 {
			env.partials = partials
		}
		if resumed > 0 {
			// Fresh slice: allJobs aliases the plan's backing array and
			// must stay intact for by-index lookups below.
			remaining := make([]tileJob, 0, len(jobs))
			for _, j := range jobs {
				if !done[j.index] {
					remaining = append(remaining, j)
				}
			}
			jobs = remaining
		}
		// Replayed tiles count toward band completion exactly like
		// recomputed ones, so streamed bands work across resume.
		if asm != nil {
			for idx := 0; idx < nTiles; idx++ {
				if done[idx] {
					r0, r1 := plan.rowSpan(allJobs[idx])
					asm.tileDone(r0, r1, outs[idx].shots)
				}
			}
		}
	}
	procMode := cfg.ProcWorkers > 0
	remoteMode := len(cfg.RemoteHosts) > 0
	workers := tileWorkerCount(cfg.TileWorkers, len(jobs))
	if procMode {
		workers = tileWorkerCount(cfg.ProcWorkers, len(jobs))
	}
	if remoteMode {
		// One slot per host — slots are pinned to their host, so none
		// are dropped even when there are fewer jobs than hosts (the
		// extra slots simply draw nothing).
		workers = len(cfg.RemoteHosts)
	}

	// Simulators are built serially up front so a kernel error surfaces
	// before any goroutine starts: one per (tile worker, window size)
	// in-process, or a single shared per-size fallback set for
	// circuit-broken slots in proc mode (worker subprocesses build their
	// own). Skip tiles never bind a simulator, so an all-empty adaptive
	// plan builds none.
	newSim := func(w int) (*litho.Simulator, error) {
		sim, err := litho.New(opticsFor(w), w)
		if err != nil {
			// Adaptive plans derive extra window sizes; name the size so a
			// threshold-induced kernel failure is actionable.
			return nil, fmt.Errorf("flow: %dpx window simulator: %w", w, err)
		}
		sim.KOpt = cfg.KOpt
		sim.Workers = cfg.Workers
		return sim, nil
	}
	newSimSet := func() (map[int]*litho.Simulator, error) {
		set := make(map[int]*litho.Simulator, len(plan.sizes))
		for _, w := range plan.sizes {
			sim, err := newSim(w)
			if err != nil {
				return nil, err
			}
			set[w] = sim
		}
		return set, nil
	}
	var workerSims []map[int]*litho.Simulator
	if procMode || remoteMode {
		set, err := newSimSet()
		if err != nil {
			return nil, err
		}
		env.fbSims = set
	} else {
		workerSims = make([]map[int]*litho.Simulator, workers)
		for i := range workerSims {
			set, err := newSimSet()
			if err != nil {
				return nil, err
			}
			workerSims[i] = set
		}
	}

	// complete folds one finished tile into the shared run state. It is
	// the single sink both in-process workers and proc slots feed, so
	// checkpointing and band streaming behave identically in every mode.
	var completed atomic.Int64
	completed.Store(int64(resumed))
	complete := func(j tileJob, out tileOut) {
		outs[j.index] = out
		completed.Add(1)
		env.emitTile(j.index, out.stat)
		if asm != nil && ctx.Err() == nil {
			r0, r1 := plan.rowSpan(j)
			asm.tileDone(r0, r1, out.shots)
		}
		if env.journalHealthy() && ctx.Err() == nil {
			buf, err := encodeRecord(journalRecord{Tile: &tileRecord{Shots: out.shots, Stat: out.stat}})
			if err == nil {
				err = env.journal.Append(buf)
			}
			if err != nil {
				env.degradeCheckpoint(err)
			}
		}
	}

	jobCh := make(chan tileJob)
	var wg sync.WaitGroup
	switch {
	case remoteMode:
		for i, host := range cfg.RemoteHosts {
			wg.Add(1)
			go func(id int, host string) {
				defer wg.Done()
				env.runRemoteSlot(ctx, id, host, jobCh, complete)
			}(i, host)
		}
	case procMode:
		for s := 0; s < workers; s++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				env.runProcSlot(ctx, id, jobCh, complete)
			}(s)
		}
	default:
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sims map[int]*litho.Simulator) {
				defer wg.Done()
				for j := range jobCh {
					if ctx.Err() != nil {
						continue // drain without work so the feeder never blocks
					}
					complete(j, env.runTile(ctx, sims, j))
				}
			}(workerSims[w])
		}
	}
	drained := false
feed:
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-ctx.Done():
			break feed
		case <-cfg.Drain: // nil channel: never fires
			drained = true
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case err := <-env.errCh:
		return nil, fmt.Errorf("flow: %w", err)
	default:
	}
	if asm != nil && !drained {
		// Every tile has completed, so this drains the remaining bands in
		// order and surfaces any writer error from mid-run emissions.
		if err := asm.finish(); err != nil {
			return nil, fmt.Errorf("flow: mask writer: %w", err)
		}
	}

	// Ordered reduce: row-major tile order regardless of completion order.
	res := &Result{Tiles: nTiles, TileStats: make([]TileStat, 0, nTiles), Resumed: resumed}
	for i := range outs {
		st := &outs[i].stat
		res.Shots = append(res.Shots, outs[i].shots...)
		res.TileStats = append(res.TileStats, *st)
		switch st.Path {
		case PathPrimary:
			if st.Attempts > 1 {
				res.Retried++
			}
		case PathFallback:
			res.Fallbacks++
		case PathEmpty:
			res.Empty++
		}
		if st.Stalled {
			res.Stalled++
		}
		if st.Bundle != "" {
			res.Quarantined++
		}
	}
	res.Completed = int(completed.Load())
	res.ProcCrashes = int(env.procCrashes.Load())
	res.Broken = int(env.procBroken.Load())
	res.RemoteCrashes = int(env.remoteCrashes.Load())
	res.RemoteBroken = int(env.remoteBroken.Load())
	res.CacheHits = int(env.cacheHits.Load())
	res.CacheMisses = int(env.cacheMisses.Load())
	if cfg.Cache != nil {
		res.CacheBytes = cfg.Cache.Stats().Bytes
	}
	res.Merged, res.Split, res.Skipped = plan.merged, plan.split, plan.skipped
	res.PeakBytes = estimatePeakBytes(cfg, plan.maxWindow, workers, env.ix.Bytes(), len(res.Shots))
	if s, ok := env.ckptErr.Load().(string); ok {
		res.CheckpointDegraded = true
		res.CheckpointErr = s
	}
	res.QuarantineDropped = int(env.quarDropped.Load())
	if drained {
		// Graceful shutdown: hand back the partial result for reporting,
		// but no stitched mask — the shot list is incomplete by
		// construction. The journal is synced so a resume picks up
		// exactly where the drain stopped dispatch; a sync failure
		// degrades the run like any other checkpoint fault.
		if env.journalHealthy() {
			if err := env.journal.Sync(); err != nil {
				if cfg.StrictStorage {
					return nil, fmt.Errorf("flow: %w", err)
				}
				env.degradeCheckpoint(fmt.Errorf("drain sync: %w", err))
				if s, ok := env.ckptErr.Load().(string); ok {
					res.CheckpointDegraded = true
					res.CheckpointErr = s
				}
			}
		}
		return res, ErrDrained
	}
	if cfg.KeepMask {
		res.Mask = geom.RasterizeCircles(cfg.GridN, cfg.GridN, res.Shots)
	}
	return res, nil
}

// WindowHooks observes and seeds a single-window run (RunWindow)
// without the journal/quarantine machinery of a tiled run — the knobs
// a tile-worker subprocess needs to stream liveness and resume state
// across the process boundary.
type WindowHooks struct {
	// Dispatch is published on TileInfo as the tile's redispatch
	// counter, the key process-fatal fault scripts fire on.
	Dispatch int
	// OnBeat observes every optimizer heartbeat (iteration, loss).
	OnBeat func(iter int, loss float64)
	// OnPartial receives mid-attempt snapshots every cfg.PartialEvery
	// iterations (nil, or PartialEvery <= 0, disables them).
	OnPartial func(attempt int, s opt.Snapshot)
	// Resume warm-starts attempt ResumeAttempt from a prior snapshot,
	// replaying the uninterrupted trajectory exactly.
	Resume        *opt.Snapshot
	ResumeAttempt int
}

// RunWindow runs one window's exact degradation sequence (primary →
// retries → fallback → empty) on an explicit target raster, outside any
// tiled run. The chain is resolved from cfg.Engines exactly as RunContext
// resolves it, and cfg.Faults is honored, so a recorded script
// re-injects the same deterministic failures. The returned shots are
// window-local (no core-ownership filtering), and no checkpoint or
// quarantine side effects are performed; the stat and attempts mirror
// what a live run would have recorded. It backs both offline bundle
// replay (internal/replay) and live tile workers (ServeTask). The error
// is non-nil only when cfg.Engines does not resolve.
func RunWindow(ctx context.Context, sim *litho.Simulator, cfg Config, index, cx, cy int,
	target *grid.Real, hooks WindowHooks) ([]geom.Circle, TileStat, []quarantine.Attempt, error) {
	start := time.Now()
	primary, fallback, err := resolveEngines(cfg)
	if err != nil {
		return nil, TileStat{}, nil, err
	}
	env := &runEnv{
		cfg:       cfg,
		primary:   primary,
		fallback:  fallback,
		opticsFor: func(int) optics.Config { return sim.Cfg },
		dispatch:  hooks.Dispatch,
	}
	if hooks.OnBeat != nil {
		env.onBeat = func(_, iter int, loss float64) { hooks.OnBeat(iter, loss) }
	}
	if hooks.OnPartial != nil {
		env.partialSink = func(_, attempt int, s opt.Snapshot) { hooks.OnPartial(attempt, s) }
	}
	if hooks.Resume != nil {
		r := hooks.Resume
		env.partials = map[int]partialRecord{index: {
			Index: index, Attempt: hooks.ResumeAttempt, Iter: r.Iter, Loss: r.Loss,
			Params: r.Params, OptT: r.OptT, OptM: r.OptM, OptV: r.OptV,
		}}
	}
	j := tileJob{index: index, cx: cx, cy: cy, core: cfg.CorePx, window: target.W}
	shots, path, outcomes := env.attemptSequence(ctx, sim, j, target)
	stat := TileStat{Index: index, CX: cx, CY: cy, Occupied: true, Path: path}
	applyOutcomes(&stat, outcomes)
	if path == PathPrimary || path == PathFallback {
		stat.Shots = len(shots)
	} else {
		shots = nil
	}
	stat.Wall = time.Since(start)
	return shots, stat, outcomes, nil
}

// CompactCheckpoint rewrites cfg.CheckpointPath dropping superseded
// records: duplicate completed-tile records and every partial-progress
// snapshot that a later snapshot or the tile's completion made
// redundant. Replay semantics are last-record-wins for both kinds, so a
// resume from the compacted journal is byte-identical to a resume from
// the original — the journal is just smaller, which is what matters
// after a many-restart run over a huge chip.
func CompactCheckpoint(l *layout.Layout, cfg Config) (checkpoint.CompactStats, error) {
	if cfg.CheckpointPath == "" {
		return checkpoint.CompactStats{}, fmt.Errorf("flow: no checkpoint path to compact")
	}
	return checkpoint.CompactFS(cfg.FS, cfg.CheckpointPath, fingerprint(l, cfg), func(p []byte) (string, error) {
		rec, err := decodeRecord(p)
		if err != nil {
			return "", fmt.Errorf("flow: corrupt checkpoint record: %w", err)
		}
		if rec.Tile != nil {
			return fmt.Sprintf("tile-%d", rec.Tile.Stat.Index), nil
		}
		return fmt.Sprintf("tile-%d", rec.Partial.Index), nil
	})
}

// estimatePeakBytes adds up the flow-owned buffers documented on
// Result.PeakBytes. Per-worker window targets dominate on the streaming
// path; KeepMask reintroduces the GridN² term the streaming path exists
// to avoid.
func estimatePeakBytes(cfg Config, window, workers int, indexBytes int64, shots int) int64 {
	const f64 = 8
	peak := indexBytes
	peak += int64(workers) * int64(window) * int64(window) * f64
	if cfg.MaskWriter != nil {
		peak += int64(cfg.GridN) * int64(cfg.CorePx) * f64 // one band in flight
	}
	if cfg.KeepMask {
		peak += int64(cfg.GridN) * int64(cfg.GridN) * f64
	}
	peak += int64(shots) * 24 // geom.Circle{X, Y, R}
	return peak
}
