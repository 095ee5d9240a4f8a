package flow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// TestMain doubles as the tile-worker binary: when the supervisor
// re-executes this test executable with the worker env set, it serves
// tasks instead of running tests, resolving the test engines registered
// in engines_test.go exactly as the coordinating test process does.
func TestMain(m *testing.M) {
	if procpool.InWorker() {
		if addr := os.Getenv(netListenEnv); addr != "" {
			// Spawned as a loopback TCP host for the net tests.
			runNetHost(addr)
		}
		ServeIfWorker()
	}
	os.Exit(m.Run())
}

// testWorkerCmd re-executes this test binary as the worker subprocess.
func testWorkerCmd(t *testing.T) func() *exec.Cmd {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func() *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// procConfig is the shared proc-mode config: cheap deterministic rule
// engine on both rungs, fast respawn backoff so crash loops resolve in
// test time.
func procConfig(t *testing.T) Config {
	cfg := testConfig()
	cfg.Engines = quarantine.EngineMeta{Primary: "rule", Fallback: "rule"}
	cfg.ProcWorkers = 1
	cfg.WorkerCmd = testWorkerCmd(t)
	cfg.ProcBackoff = 5 * time.Millisecond
	return cfg
}

// serialRef strips proc and remote mode off a config, yielding the
// in-process serial run every proc/net test compares against
// (Fault.Kill is a no-op in-process, so the same fault plan drives
// both runs).
func serialRef(cfg Config) Config {
	cfg.ProcWorkers = 0
	cfg.WorkerCmd = nil
	cfg.RemoteHosts = nil
	cfg.TileWorkers = 1
	return cfg
}

func TestProcValidation(t *testing.T) {
	l := bigLayout()
	cfg := procConfig(t)
	cfg.ProcWorkers = -1
	if _, err := Run(l, cfg); err == nil {
		t.Error("negative ProcWorkers accepted")
	}
	cfg = procConfig(t)
	cfg.WorkerCmd = nil
	if _, err := Run(l, cfg); err == nil {
		t.Error("ProcWorkers without WorkerCmd accepted")
	}
	cfg = procConfig(t)
	cfg.Engines = quarantine.EngineMeta{}
	if _, err := Run(l, cfg); err == nil {
		t.Error("ProcWorkers without engine metadata accepted")
	}
}

// TestProcAcceptance is the issue's acceptance scenario: four proc
// workers, two tiles SIGKILLed mid-tile (recover on respawn), one tile
// crash-looping its slot into the circuit breaker — the run completes,
// the degradations are recorded, and shots, stats and streamed bands
// are byte-identical to the serial in-process reference.
func TestProcAcceptance(t *testing.T) {
	l := quadLayout()
	plan := FaultPlan{
		1: {{Kill: 1}},       // killed on the first dispatch, clean on respawn
		2: {{Kill: 1}},       // same, on another tile
		3: {{Kill: 1 << 30}}, // crash-loops until the breaker trips
	}
	mk := func(w MaskWriter) Config {
		cfg := procConfig(t)
		cfg.ProcWorkers = 4
		cfg.ProcCrashLimit = 3
		cfg.Faults = plan
		cfg.MaskWriter = w
		return cfg
	}

	refColl := NewMaskCollector(testConfig().GridN)
	ref, err := Run(l, serialRef(mk(refColl)))
	if err != nil {
		t.Fatal(err)
	}
	if ref.ProcCrashes != 0 || ref.Broken != 0 {
		t.Fatalf("serial reference recorded proc activity: %+v", ref)
	}

	procColl := NewMaskCollector(testConfig().GridN)
	res, err := Run(l, mk(procColl))
	if err != nil {
		t.Fatal(err)
	}
	// Tiles 1 and 2: one failed dispatch each. Tile 3: exactly
	// ProcCrashLimit failures, then the breaker. The counts are exact
	// because a slot handles one tile at a time and the consecutive
	// counter resets on every success.
	if res.ProcCrashes != 5 {
		t.Fatalf("ProcCrashes = %d, want 5", res.ProcCrashes)
	}
	if res.Broken != 1 {
		t.Fatalf("Broken = %d, want 1", res.Broken)
	}
	if res.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", res.Completed)
	}
	for idx, want := range map[int]struct {
		proc    bool
		crashes int
	}{
		0: {true, 0},
		1: {true, 1},
		2: {true, 1},
		3: {false, 3}, // circuit-broken: finished in-process
	} {
		st := res.TileStats[idx]
		if st.Proc != want.proc || st.ProcCrashes != want.crashes {
			t.Fatalf("tile %d: proc=%v crashes=%d, want proc=%v crashes=%d",
				idx, st.Proc, st.ProcCrashes, want.proc, want.crashes)
		}
		if st.Path != PathPrimary {
			t.Fatalf("tile %d path = %q", idx, st.Path)
		}
	}
	sameResult(t, res, ref)
	if procColl.Mask.SqDiff(refColl.Mask) != 0 {
		t.Fatal("proc run's streamed bands differ from the serial reference's")
	}
}

// TestCrashMatrix is the CI crash-matrix entry point: the fault kind
// and worker count come from the environment (one cell per CI job), or
// every cell runs when the variables are unset.
func TestCrashMatrix(t *testing.T) {
	kinds := []string{"kill", "crashloop"}
	if v := os.Getenv("FLOW_PROC_FAULT"); v != "" && v != "all" {
		kinds = []string{v}
	}
	counts := []int{1, 4}
	if v := os.Getenv("FLOW_PROC_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("FLOW_PROC_WORKERS = %q", v)
		}
		counts = []int{n}
	}
	l := quadLayout()
	for _, kind := range kinds {
		for _, workers := range counts {
			t.Run(fmt.Sprintf("%s/procworkers=%d", kind, workers), func(t *testing.T) {
				var plan FaultPlan
				crashLimit := 3
				wantCrashes, wantBroken := 0, 0
				switch kind {
				case "kill":
					// Every tile loses its worker once mid-tile; every
					// respawn recovers.
					plan = FaultPlan{0: {{Kill: 1}}, 1: {{Kill: 1}}, 2: {{Kill: 1}}, 3: {{Kill: 1}}}
					wantCrashes = 4
				case "crashloop":
					// One tile kills every worker it ever gets until its
					// slot circuit-breaks to in-process execution.
					plan = FaultPlan{1: {{Kill: 1 << 30}}}
					crashLimit = 2
					wantCrashes, wantBroken = 2, 1
				default:
					t.Fatalf("unknown fault kind %q", kind)
				}
				mk := func() Config {
					cfg := procConfig(t)
					cfg.ProcWorkers = workers
					cfg.ProcCrashLimit = crashLimit
					cfg.Faults = plan
					return cfg
				}
				ref, err := Run(l, serialRef(mk()))
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(l, mk())
				if err != nil {
					t.Fatal(err)
				}
				if res.ProcCrashes != wantCrashes || res.Broken != wantBroken {
					t.Fatalf("crashes=%d broken=%d, want %d/%d",
						res.ProcCrashes, res.Broken, wantCrashes, wantBroken)
				}
				sameResult(t, res, ref)
			})
		}
	}
}

// TestWorkerSoftErrorBreaksToFallback covers the non-crash failure
// lane: a worker that stays alive but reports a deterministic task
// error (here: an engine name its binary does not register) counts
// toward the breaker exactly like a crash, and the tile completes
// in-process on the coordinator, which does register it.
func TestWorkerSoftErrorBreaksToFallback(t *testing.T) {
	l := bigLayout() // two occupied tiles of four
	cfg := procConfig(t)
	cfg.Engines.Primary = "coordinator-only" // the worker-side registry rejects it
	cfg.ProcCrashLimit = 2
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcCrashes != 2 || res.Broken != 1 {
		t.Fatalf("crashes=%d broken=%d, want 2/1", res.ProcCrashes, res.Broken)
	}
	for _, st := range res.TileStats {
		if st.Proc {
			t.Fatalf("tile %d claims a proc result after circuit break", st.Index)
		}
	}
	ref, err := Run(l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}

// TestWorkerSpawnFailureBreaks: a WorkerCmd that cannot even start
// (missing binary) is a failed dispatch, not a run failure — the
// breaker degrades the slot and the run completes in-process.
func TestWorkerSpawnFailureBreaks(t *testing.T) {
	l := bigLayout()
	cfg := procConfig(t)
	cfg.ProcCrashLimit = 2
	missing := filepath.Join(t.TempDir(), "no-such-worker")
	cfg.WorkerCmd = func() *exec.Cmd { return exec.Command(missing) }
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcCrashes != 2 || res.Broken != 1 {
		t.Fatalf("crashes=%d broken=%d, want 2/1", res.ProcCrashes, res.Broken)
	}
	ref, err := Run(l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}

// TestNonWorkerBinarySilenceBreaks: a binary that starts but never
// speaks the protocol (no Hello) is killed after ProcSilence and
// counted as a failed dispatch, so a misconfigured -worker-bin degrades
// instead of wedging the run.
func TestNonWorkerBinarySilenceBreaks(t *testing.T) {
	l := bigLayout()
	cfg := procConfig(t)
	cfg.ProcCrashLimit = 2
	cfg.ProcSilence = 150 * time.Millisecond
	cfg.WorkerCmd = func() *exec.Cmd { return exec.Command("sleep", "60") }
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcCrashes != 2 || res.Broken != 1 {
		t.Fatalf("crashes=%d broken=%d, want 2/1", res.ProcCrashes, res.Broken)
	}
	ref, err := Run(l, serialRef(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}

// TestDrainInProcess: the graceful-drain channel stops dispatch after
// the in-flight tile, the run returns ErrDrained with a truthful
// partial result, and a resume completes it byte-identically.
func TestDrainInProcess(t *testing.T) {
	testDrain(t, false)
}

// TestProcDrainResume is the same drain contract in proc mode, with a
// worker crash thrown in before the drain point: crash, respawn,
// drain, checkpoint, resume — stitched output still byte-identical to
// the uninterrupted serial reference.
func TestProcDrainResume(t *testing.T) {
	testDrain(t, true)
}

func testDrain(t *testing.T, proc bool) {
	l := quadLayout()
	// Tile 0 is slow enough that the drain fires while it is in flight;
	// in proc mode it additionally loses its first worker mid-tile.
	script := quarantine.Fault{Sleep: 500 * time.Millisecond}
	if proc {
		script.Kill = 1
	}
	plan := FaultPlan{0: {script}}
	mk := func(w MaskWriter) Config {
		cfg := procConfig(t)
		if !proc {
			cfg.ProcWorkers = 0
			cfg.WorkerCmd = nil
			cfg.TileWorkers = 1
		}
		cfg.Faults = plan
		cfg.MaskWriter = w
		return cfg
	}

	refColl := NewMaskCollector(testConfig().GridN)
	ref, err := Run(l, serialRef(mk(refColl)))
	if err != nil {
		t.Fatal(err)
	}

	// Drained run: with one worker and an unbuffered job channel, the
	// feeder is still holding tile 1 when the drain closes, so exactly
	// the in-flight tile completes.
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	drain := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(drain)
	}()
	cfg := mk(NewMaskCollector(testConfig().GridN))
	cfg.CheckpointPath = ckpt
	cfg.Drain = drain
	res, err := RunContext(context.Background(), l, cfg)
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("drained run err = %v, want ErrDrained", err)
	}
	if res == nil {
		t.Fatal("drained run returned no result")
	}
	if res.Completed != 1 {
		t.Fatalf("drained run completed %d tiles, want 1", res.Completed)
	}
	if res.Mask != nil {
		t.Fatal("drained run produced a stitched mask")
	}
	if st := res.TileStats[0]; st.Path != PathPrimary {
		t.Fatalf("in-flight tile stat after drain: %+v", st)
	}
	if st := res.TileStats[1]; st.Path != "" || st.Attempts != 0 {
		t.Fatalf("undispatched tile has activity: %+v", st)
	}
	if proc && res.ProcCrashes != 1 {
		t.Fatalf("drained run ProcCrashes = %d, want 1", res.ProcCrashes)
	}

	// Resume: tile 0 replays from the journal, the rest compute, and
	// the full band stream re-emits.
	resColl := NewMaskCollector(testConfig().GridN)
	cfg = mk(resColl)
	cfg.CheckpointPath = ckpt
	res2, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 1 {
		t.Fatalf("resumed %d tiles, want 1", res2.Resumed)
	}
	sameResult(t, res2, ref)
	if resColl.Mask.SqDiff(refColl.Mask) != 0 {
		t.Fatal("resumed run's streamed bands differ from the reference's")
	}
}

// recSink records the beat/partial stream a ServeTask emits.
type recSink struct {
	beats    int
	partials []procpool.PartialState
}

func (s *recSink) Beat(index, iter int, loss float64) { s.beats++ }
func (s *recSink) Partial(index int, p procpool.PartialState) {
	s.partials = append(s.partials, p)
}

// TestServeTaskHooks drives the worker-side entry point in-process: a
// hand-built task (the same shape buildTask wires) must stream beats
// and snapshots through the sink, and re-serving the task warm-started
// from a mid-run snapshot must replay to identical shots — the
// property crash-redispatch determinism rests on.
func TestServeTaskHooks(t *testing.T) {
	l := bigLayout()
	base := testConfig()
	window := base.CorePx + 2*base.HaloPx
	dx := float64(l.TileNM) / float64(base.GridN)
	oCfg := base.Optics
	oCfg.TileNM = float64(window) * dx
	ix := layout.NewWindowIndex(l, base.GridN)
	target, occupied := ix.Window(-base.HaloPx, -base.HaloPx, window, window)
	if !occupied {
		t.Fatal("tile 0 of bigLayout should be occupied")
	}
	sim, err := litho.New(oCfg, window)
	if err != nil {
		t.Fatal(err)
	}
	sim.KOpt = base.KOpt

	mkTask := func() *procpool.Task {
		return &procpool.Task{
			Bundle: quarantine.Bundle{
				FormatVersion: quarantine.FormatVersion,
				GridN:         base.GridN,
				CorePx:        base.CorePx,
				HaloPx:        base.HaloPx,
				KOpt:          base.KOpt,
				Optics:        oCfg,
				Engines:       quarantine.EngineMeta{Primary: "circle", Iters: 8},
				Tile: quarantine.Tile{
					Index: 0, CX: 0, CY: 0,
					OriginX: -base.HaloPx, OriginY: -base.HaloPx, WindowPx: window,
				},
				TargetW: window,
				TargetH: window,
				Target:  append([]float64(nil), target.Data...),
			},
			PartialEvery: 2,
		}
	}

	sink := &recSink{}
	reply := ServeTask(context.Background(), sim, mkTask(), sink)
	if reply.Err != "" {
		t.Fatalf("reply error: %s", reply.Err)
	}
	if reply.Path != PathPrimary || len(reply.Shots) == 0 {
		t.Fatalf("reply path %q with %d shots", reply.Path, len(reply.Shots))
	}
	if sink.beats == 0 {
		t.Fatal("no heartbeats streamed")
	}
	if len(sink.partials) == 0 {
		t.Fatal("no partial snapshots streamed despite PartialEvery")
	}

	// Warm-start from a mid-run snapshot: the remaining trajectory must
	// be the recorded one, so the final shots are identical.
	resume := sink.partials[0]
	task := mkTask()
	task.Resume = &resume
	reply2 := ServeTask(context.Background(), sim, task, &recSink{})
	if reply2.Err != "" {
		t.Fatalf("resumed reply error: %s", reply2.Err)
	}
	if len(reply2.Shots) != len(reply.Shots) {
		t.Fatalf("resumed reply has %d shots, cold run %d", len(reply2.Shots), len(reply.Shots))
	}
	for i := range reply.Shots {
		if reply.Shots[i] != reply2.Shots[i] {
			t.Fatalf("shot %d diverged after snapshot resume: %+v vs %+v",
				i, reply.Shots[i], reply2.Shots[i])
		}
	}

	// A task-grade bundle failing validation is a soft error, not a panic.
	bad := mkTask()
	bad.Bundle.Target = nil
	if r := ServeTask(context.Background(), sim, bad, nil); r.Err == "" {
		t.Fatal("invalid task accepted")
	}
	// So is a task naming an engine this process does not register.
	bad = mkTask()
	bad.Bundle.Engines.Primary = "no-such-engine"
	if r := ServeTask(context.Background(), sim, bad, nil); !strings.Contains(r.Err, "no-such-engine") {
		t.Fatalf("unknown engine reply error = %q", r.Err)
	}
}

// TestProcPartialResume exercises partial snapshots across the process
// boundary in both directions: a journaled snapshot warm-starts the
// worker's first dispatch (resume after a mid-optimization interrupt),
// and the worker's own Partial frames are journaled by the supervisor
// during the run. Output must match the cold serial reference — the
// exact-trajectory property redispatch determinism rests on.
func TestProcPartialResume(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full CircleOpt runs: partial records only exist there")
	}
	l := bigLayout()
	mkCfg := func() Config {
		cfg := procConfig(t)
		cfg.Engines = quarantine.EngineMeta{Primary: "circle", Iters: 8}
		cfg.PartialEvery = 2
		return cfg
	}
	ref, err := Run(l, serialRef(mkCfg()))
	if err != nil {
		t.Fatal(err)
	}

	// Capture a genuine mid-optimization snapshot of tile 0 by serving
	// its window in-process with a recording sink.
	base := testConfig()
	window := base.CorePx + 2*base.HaloPx
	oCfg := base.Optics
	oCfg.TileNM = float64(window) * float64(l.TileNM) / float64(base.GridN)
	ix := layout.NewWindowIndex(l, base.GridN)
	target, _ := ix.Window(-base.HaloPx, -base.HaloPx, window, window)
	sim, err := litho.New(oCfg, window)
	if err != nil {
		t.Fatal(err)
	}
	sim.KOpt = base.KOpt
	sink := &recSink{}
	reply := ServeTask(context.Background(), sim, &procpool.Task{
		Bundle: quarantine.Bundle{
			FormatVersion: quarantine.FormatVersion,
			GridN:         base.GridN, CorePx: base.CorePx, HaloPx: base.HaloPx, KOpt: base.KOpt,
			Optics:  oCfg,
			Engines: quarantine.EngineMeta{Primary: "circle", Iters: 8},
			Tile: quarantine.Tile{
				Index: 0, CX: 0, CY: 0,
				OriginX: -base.HaloPx, OriginY: -base.HaloPx, WindowPx: window,
			},
			TargetW: window, TargetH: window,
			Target: append([]float64(nil), target.Data...),
		},
		PartialEvery: 2,
	}, sink)
	if reply.Err != "" || len(sink.partials) == 0 {
		t.Fatalf("snapshot capture failed: err %q, %d partials", reply.Err, len(sink.partials))
	}
	snap := sink.partials[0]

	// Journal that snapshot as the interrupted run would have, then
	// resume in proc mode: tile 0's first dispatch warm-starts from it.
	cfg := mkCfg()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	j, _, err := checkpoint.Open(cfg.CheckpointPath, fingerprint(l, cfg))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := encodeRecord(journalRecord{Partial: &partialRecord{
		Index: 0, Attempt: snap.Attempt, Iter: snap.Iter, Loss: snap.Loss,
		Params: snap.Params, OptT: snap.OptT, OptM: snap.OptM, OptV: snap.OptV,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(buf); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcCrashes != 0 || res.Broken != 0 {
		t.Fatalf("healthy resume recorded crashes: %+v", res)
	}
	for _, st := range res.TileStats {
		if st.Occupied && !st.Proc {
			t.Fatalf("tile %d not served by a worker", st.Index)
		}
	}
	// The warm-started tile skipped the iterations the snapshot already
	// held, so its heartbeat count is legitimately lower; everything
	// else — shots, mask, loss — must be byte-identical.
	if res.TileStats[0].Iters >= ref.TileStats[0].Iters {
		t.Fatalf("tile 0 iters %d not reduced by warm start (reference %d)",
			res.TileStats[0].Iters, ref.TileStats[0].Iters)
	}
	res.TileStats[0].Iters = ref.TileStats[0].Iters
	sameResult(t, res, ref)

	// The workers' own Partial frames must have been journaled: the
	// finished journal holds tile records plus streamed snapshots.
	j2, payloads, err := checkpoint.Open(cfg.CheckpointPath, fingerprint(l, cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	tiles, partials := 0, 0
	for _, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Tile != nil {
			tiles++
		} else {
			partials++
		}
	}
	if tiles != 4 {
		t.Fatalf("journal holds %d tile records, want 4", tiles)
	}
	if partials <= 1 {
		t.Fatalf("journal holds %d partial records; worker snapshots were not journaled", partials)
	}
}

// TestRunnerSoftErrors: the worker-session executor turns an invalid
// bundle and an unbuildable window simulator into task errors, never a
// panic or a dead worker.
func TestRunnerSoftErrors(t *testing.T) {
	run := runner()
	if r := run(context.Background(), &procpool.Task{}, nil); r.Err == "" {
		t.Fatal("invalid bundle accepted")
	}
	bad := &procpool.Task{Bundle: quarantine.Bundle{
		FormatVersion: quarantine.FormatVersion,
		Optics:        testConfig().Optics,
		Engines:       quarantine.EngineMeta{Primary: "rule"},
		Tile:          quarantine.Tile{WindowPx: 4},
		TargetW:       4, TargetH: 4, Target: make([]float64, 16),
	}}
	bad.Bundle.Optics.NA = 0 // no kernels to build
	if r := run(context.Background(), bad, nil); !strings.HasPrefix(r.Err, "litho: ") {
		t.Fatalf("unbuildable simulator: reply error %q", r.Err)
	}
}

// TestProcKnobDefaults pins the proc-mode tuning defaults and their
// overrides.
func TestProcKnobDefaults(t *testing.T) {
	var zero Config
	if got := zero.procCrashLimit(); got != 3 {
		t.Errorf("default crash limit = %d", got)
	}
	if got := zero.procSilence(); got != 10*time.Second {
		t.Errorf("default silence = %s", got)
	}
	if got := zero.procBackoff(); got != 50*time.Millisecond {
		t.Errorf("default backoff = %s", got)
	}
	set := Config{ProcCrashLimit: 7, ProcSilence: time.Second, ProcBackoff: time.Millisecond}
	if set.procCrashLimit() != 7 || set.procSilence() != time.Second || set.procBackoff() != time.Millisecond {
		t.Error("overrides not honored")
	}
	if _, ok := TileInfoFrom(context.Background()); ok {
		t.Error("TileInfoFrom invented info on a bare context")
	}
}

// TestQuarantineRetentionInFlow: with a bundle budget configured, a run
// that quarantines two tiles keeps only the newest bundle pair.
func TestQuarantineRetentionInFlow(t *testing.T) {
	l := bigLayout() // tiles 0 and 3 occupied
	cfg := testConfig()
	cfg.TileWorkers = 1 // serial: tile 3's bundle is written after tile 0's
	cfg.Engines = quarantine.EngineMeta{Primary: "rule"}
	cfg.Faults = FaultPlan{
		0: {{NaN: true}},
		3: {{NaN: true}},
	}
	qdir := filepath.Join(t.TempDir(), "quarantine")
	cfg.QuarantineDir = qdir
	cfg.QuarantineMaxBundles = 1
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty != 2 || res.Quarantined != 2 {
		t.Fatalf("empty=%d quarantined=%d, want 2/2", res.Empty, res.Quarantined)
	}
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || !strings.HasPrefix(names[0], "tile0003") || !strings.HasPrefix(names[1], "tile0003") {
		t.Fatalf("retained files = %v, want only the newest tile's pair", names)
	}
	// The survivor is still a loadable bundle.
	if _, err := quarantine.Load(filepath.Join(qdir, "tile0003.qrb")); err != nil {
		t.Fatal(err)
	}
}

// TestCompactKeepsTrailingPartial is the regression the issue calls
// out: a journal whose last records are partial snapshots for a tile
// that never completed must keep exactly the freshest snapshot through
// compaction, so a resume after compacting warm-starts identically.
func TestCompactKeepsTrailingPartial(t *testing.T) {
	l := bigLayout()
	cfg := testConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")

	j, _, err := checkpoint.Open(cfg.CheckpointPath, fingerprint(l, cfg))
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(rec journalRecord) {
		t.Helper()
		buf, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(buf); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(journalRecord{Tile: &tileRecord{Stat: TileStat{Index: 0, Occupied: true, Path: PathPrimary}}})
	appendRec(journalRecord{Partial: &partialRecord{Index: 1, Iter: 10, Loss: 3, Params: []float64{1, 2, 3}}})
	appendRec(journalRecord{Partial: &partialRecord{Index: 1, Iter: 20, Loss: 2, Params: []float64{4, 5, 6}}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	stats, err := CompactCheckpoint(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != 2 || stats.Dropped != 1 {
		t.Fatalf("compact stats = %+v, want 2 kept / 1 dropped", stats)
	}

	j2, payloads, err := checkpoint.Open(cfg.CheckpointPath, fingerprint(l, cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(payloads) != 2 {
		t.Fatalf("%d records after compaction, want 2", len(payloads))
	}
	rec0, err := decodeRecord(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if rec0.Tile == nil || rec0.Tile.Stat.Index != 0 {
		t.Fatalf("first surviving record = %+v, want tile 0", rec0)
	}
	rec1, err := decodeRecord(payloads[1])
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Partial == nil || rec1.Partial.Index != 1 || rec1.Partial.Iter != 20 {
		t.Fatalf("second surviving record = %+v, want tile 1's freshest partial", rec1)
	}

	// Compacting without a checkpoint path is a caller error.
	cfg.CheckpointPath = ""
	if _, err := CompactCheckpoint(l, cfg); err == nil {
		t.Fatal("compaction without a checkpoint path accepted")
	}
}

// Every occupied tile's wall time is stamped on the stat the run returns,
// in-process and through a proc worker, and it covers the rasterization.
func TestTileWallStamped(t *testing.T) {
	l := bigLayout()
	for _, cfg := range []Config{serialRef(procConfig(t)), procConfig(t)} {
		res, err := Run(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		occupied := 0
		for _, st := range res.TileStats {
			if !st.Occupied {
				continue
			}
			occupied++
			if st.Proc != (cfg.ProcWorkers > 0) {
				t.Errorf("tile %d: Proc = %v under ProcWorkers %d", st.Index, st.Proc, cfg.ProcWorkers)
			}
			if st.Wall <= 0 || st.Wall < st.RasterWall {
				t.Errorf("proc=%v tile %d: Wall %v, RasterWall %v", cfg.ProcWorkers > 0, st.Index, st.Wall, st.RasterWall)
			}
		}
		if occupied == 0 {
			t.Fatalf("proc=%v: no occupied tile", cfg.ProcWorkers > 0)
		}
	}
}
