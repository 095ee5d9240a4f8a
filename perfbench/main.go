// Command perfbench is the repository benchmark: it hosts cfaopcd's job
// manager and HTTP handler in-process on a loopback listener, drives it
// as a client with seeded layouts, and reports end-to-end metrics, or
// with -trace 1 the per-layer ladder, as one JSON line.
//
//	perfbench -root <checkout> -workload daemon-192 -seed 1 -seconds 25 -trace 0
//	perfbench -compare 'base-*.json' 'head-*.json'
//
// Workloads: daemon-192 (the daemon's default tiling, CircleOpt on
// 192-px Bluestein windows), paper-512 (the paper's single-clip
// CircleOpt path at 512², radix-2 FFT) and fullchip-rule (batches of
// full-chip CircleRule jobs at 1 nm/px with a shared window cache).
// See NOTES.md beside this file for the metric/layer/workload table.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/metrics"
	"cfaopc/internal/optics"
	"cfaopc/internal/server"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every reported metric, end-to-end first, then per layer.
var endToEndUnits = map[string]string{
	"setup_s": "s", "makespan_s": "s", "mpx_per_s": "Mpx/s",
	"iter_p50_ms": "ms", "iter_tail_ms": "ms", "window_p50_ms": "ms", "window_tail_ms": "ms",
	"peak_heap_mb": "MB", "alloc_mb": "MB", "shots": "count",
	"l2_nm2": "nm2", "pvb_nm2": "nm2", "ok_ratio": "ratio",
}

var perLayerUnits = map[string]string{
	"fft.fwd2d_ms": "ms", "fft.inv2d_ms": "ms", "fft.alloc_kb": "KB", "fft.gflops": "GFLOP/s",
	"optics.kernels_ms": "ms", "litho.sim_new_ms": "ms",
	"litho.aerial_ms": "ms", "litho.aerial_backward_ms": "ms", "litho.lossgrad_ms": "ms", "litho.lossgrad_alloc_mb": "MB",
	"ilt.mosaic_iter_ms": "ms", "ilt.iters": "count",
	"core.circle_iter_ms": "ms", "core.iters": "count", "core.render_ms": "ms", "core.backward_ms": "ms", "core.circles": "count",
	"fracture.circlerule_ms": "ms", "fracture.share": "ratio", "fracture.order_shots_ms": "ms",
	"geom.skeleton_ms": "ms", "geom.edt_ms": "ms",
	"layout.index_ms": "ms", "layout.window_us": "us", "layout.occupied_ratio": "ratio",
	"flow.tiles": "count", "flow.window_ms": "ms", "flow.bands": "count", "flow.run_s": "s", "flow.peak_bytes": "bytes",
	"wcache.hits": "count", "wcache.misses": "count", "wcache.hit_ratio": "ratio", "wcache.bytes": "bytes",
	"checkpoint.journal_bytes": "bytes", "checkpoint.bytes_per_tile": "bytes",
	"server.events": "count", "server.events_log_bytes": "bytes",
	"server.submit_ms": "ms", "server.queue_wait_ms": "ms", "server.first_tile_ms": "ms",
	"server.overhead_ms": "ms", "server.refused": "count", "server.sse_reconnects": "count",
	"go.gc_cycles": "count", "go.gc_pause_ms": "ms", "metrics.epe_violations": "count",
	"trace.makespan_s": "s", "trace.overhead_ratio": "ratio",
}

// bench is one benchmark process: one workload, one seed.
type bench struct {
	root     string
	work     string // scratch directory of this run, removed at exit
	workload string
	seed     int64
	seconds  float64
	trace    bool
	fp       fingerprint
	// setupCount is how many set-ups the median of setup_s is taken over.
	setupCount int
	start      time.Time
}

// logf reports progress on standard error, stamped with the run's age.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%7.2fs] %s\n", time.Since(b.start).Seconds(), fmt.Sprintf(format, args...))
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root; every file the run writes stays under <root>/.bench_build")
		workload = flag.String("workload", "daemon-192", "daemon-192 | paper-512 | fullchip-rule")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same layouts")
		seconds  = flag.Int("seconds", 25, "how long the measured phase runs (rounds continue until it has passed)")
		traceOn  = flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
		compare  = flag.Bool("compare", false, "compare two sets of result files, given as two glob patterns (base head); refuses mismatched host fingerprints")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	b := &bench{root: *root, workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *traceOn == 1, start: time.Now()}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -compare 'base-*.json' 'head-*.json'")
		return 2
	}
	base, err := readResults(args[0])
	if err == nil {
		var head []*resultFile
		if head, err = readResults(args[1]); err == nil {
			var out string
			if out, err = compareResults(base, head); err == nil {
				fmt.Print(out)
				return 0
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	var fe *errFingerprint
	if errors.As(err, &fe) {
		return 3
	}
	return 1
}

func (b *bench) run() (*result, error) {
	out := filepath.Join(b.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	b.work = work
	defer os.RemoveAll(work)
	b.fp = hostFingerprint(work)
	fpLine, _ := json.Marshal(b.fp)
	fmt.Printf("fingerprint %s\n", fpLine)

	layoutDir := filepath.Join(work, "layouts")
	if err := os.MkdirAll(layoutDir, 0o755); err != nil {
		return nil, err
	}
	p, err := newPlan(b.workload, b.seed, layoutDir)
	if err != nil {
		return nil, err
	}
	setup, err := b.setup(p)
	if err != nil {
		return nil, err
	}
	b.logf("setup %.4f s (median of %d)", setup, b.setupCount)
	var rf *resultFile
	if b.trace {
		rf, err = b.traced(p)
	} else {
		rf, err = b.measure(p, setup)
	}
	if err != nil {
		return nil, err
	}
	rf.Fingerprint, rf.Workload, rf.Seed, rf.Trace = b.fp, b.workload, b.seed, b.trace
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", b.workload, b.seed, b.trace, time.Now().UnixNano())
	if buf, err := json.MarshalIndent(rf, "", " "); err == nil {
		if err := os.WriteFile(filepath.Join(out, name), buf, 0o644); err != nil {
			return nil, err
		}
	}
	printTable(rf)
	return &result{Correct: rf.Correct, Attempted: rf.Attempted, Failed: rf.Failed, Metrics: rf.Metrics}, nil
}

// setup times the work a user pays before the first job: computing the
// SOCS kernel sets for the workload's window size and starting the
// daemon until /healthz answers. It repeats at least setupReps times and
// for at least setupMin (kernels are computed uncached each time), and
// returns the median in seconds; it then leaves the process kernel cache
// warm for the measured rounds.
func (b *bench) setup(p *plan) (float64, error) {
	cfg := p.windowOptics()
	var xs []float64
	begin := time.Now()
	for i := 0; i < setupMaxReps && (i < setupReps || time.Since(begin) < setupMin); i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		if _, err := optics.ComputeKernels(cfg, false); err != nil {
			return 0, err
		}
		if _, err := optics.ComputeKernels(cfg, true); err != nil {
			return 0, err
		}
		if !p.paper {
			d, err := startDaemon(dir, p.layoutDir, p.maxActive, nil)
			if err != nil {
				return 0, err
			}
			xs = append(xs, time.Since(start).Seconds())
			d.stop()
		} else {
			xs = append(xs, time.Since(start).Seconds())
		}
		os.RemoveAll(dir)
	}
	if _, err := litho.New(cfg, p.window); err != nil {
		return 0, err
	}
	b.setupCount = len(xs)
	return median(xs), nil
}

// round runs one round of the workload in a fresh data directory.
func (b *bench) round(p *plan, i int, tr *tracer) (*roundResult, error) {
	if p.paper {
		return b.paperRound(p, tr)
	}
	dir := filepath.Join(b.work, fmt.Sprintf("round-%d", i))
	defer os.RemoveAll(dir)
	return b.daemonRound(p, p.specs, dir, tr)
}

// measure is the untraced run: rounds until the measured phase has lasted
// b.seconds and p.minRounds rounds have run (the second only until
// roundsCap × b.seconds), or until p.maxRounds, then the output checks
// and scoring outside the timed region. The first round is a warm-up
// whose timings are left out.
func (b *bench) measure(p *plan, setup float64) (*resultFile, error) {
	var rounds []*roundResult
	var flowWindows []float64
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start).Seconds()
		if i == p.maxRounds || i > 1 && el >= b.seconds && (i >= p.minRounds || el >= roundsCap*b.seconds) {
			break
		}
		r, err := b.round(p, i, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		b.logf("round %d: makespan %.3f s", i, r.makespan)
		if p.flowWindows && i < flowDirects {
			// One direct RunSpec after each round, cycling through the
			// batch's jobs, so the window spans pool every layout and
			// the whole run rather than one job at one moment. Job 0's
			// run is also round 0's parity check.
			dr, err := b.direct(p, p.specs[i%len(p.specs)], filepath.Join(b.work, "direct"), nil)
			os.RemoveAll(filepath.Join(b.work, "direct"))
			if err != nil {
				rounds[0].fail("direct RunSpec: %v", err)
				continue
			}
			if i == 0 {
				checkParity(r, dr)
			}
			flowWindows = append(flowWindows, dr.windows...)
		}
	}
	first := rounds[0]
	for i, r := range rounds[1:] {
		if r.shotsSHA != first.shotsSHA {
			first.fail("round %d shot-list SHA-256 %s differs from round 0's %s", i+1, r.shotsSHA[:12], first.shotsSHA[:12])
		}
	}
	rep, err := b.score(p, first)
	if err != nil {
		first.fail("scoring: %v", err)
	}
	b.logf("checks and scoring done")

	var makespans, rates, heaps, allocs, gaps, windows []float64
	attempted, failed, reconnects := 0, 0, 0
	var checks []string
	for i, r := range rounds {
		// Round 0 warms the process up (it ran slowest in most runs):
		// its outputs are the checks' reference, its timings are not
		// reported.
		if i > 0 {
			makespans = append(makespans, r.makespan)
			rates = append(rates, r.mpx/r.makespan)
			heaps = append(heaps, r.peakHeap)
			allocs = append(allocs, r.alloc)
			gaps = append(gaps, r.gaps...)
			if !p.flowWindows {
				windows = append(windows, r.windows...)
			}
		}
		attempted += r.attempts
		failed += r.failures
		reconnects += r.reconnects
		checks = append(checks, r.failed...)
	}
	if p.flowWindows {
		windows, gaps = flowWindows, flowWindows
	}
	it, wt := tailOf(gaps), tailOf(windows)
	vals := map[string]float64{
		"setup_s":        setup,
		"makespan_s":     median(makespans),
		"mpx_per_s":      median(rates),
		"iter_p50_ms":    median(gaps),
		"iter_tail_ms":   it.Value,
		"window_p50_ms":  median(windows),
		"window_tail_ms": wt.Value,
		"peak_heap_mb":   median(heaps),
		"alloc_mb":       median(allocs),
		"shots":          float64(first.shots),
		"l2_nm2":         rep.L2,
		"pvb_nm2":        rep.PVB,
		"ok_ratio":       1 - float64(failed)/float64(attempted),
	}
	failed += noSamples(vals, &checks)
	rf := &resultFile{
		Correct: failed == 0,
		Metrics: withUnits(vals, endToEndUnits),
		Checks:  checks,
		Notes: map[string]string{
			"rounds":         fmt.Sprint(len(rounds)),
			"iter_p50_ms":    fmt.Sprintf("median of %d heartbeat gaps", len(gaps)),
			"iter_tail_ms":   it.Label(),
			"window_p50_ms":  fmt.Sprintf("median of %d computed-window spans", len(windows)),
			"window_tail_ms": wt.Label(),
			"makespan_s":     fmt.Sprintf("median of %d rounds after a warm-up round", len(makespans)),
			"setup_s":        fmt.Sprintf("median of %d set-ups", b.setupCount),
			"quality": fmt.Sprintf("metrics.Evaluate on round 0's first mask, untimed: L2 %.0f nm2, PVB %.0f nm2, %d EPE violations, %d shots",
				rep.L2, rep.PVB, rep.EPE, rep.Shots),
			"shots_sha256":   first.shotsSHA,
			"sse_reconnects": fmt.Sprint(reconnects),
		},
		Attempted: attempted,
		Failed:    failed,
	}
	if p.flowWindows {
		rf.Notes["window_p50_ms"] += fmt.Sprintf(" from flow.Event tile events of %d direct RunSpecs", min(len(rounds), flowDirects))
		rf.Notes["iter_p50_ms"] += " (CircleRule emits no heartbeats: one iteration is one window)"
	}
	return rf, nil
}

// checkParity checks the DESIGN §2 contract on the round's first job:
// the daemon's shots.csv and mask.pgm equal a direct server.RunSpec of
// the same spec byte for byte.
func checkParity(r *roundResult, dr *directResult) {
	r.attempts++
	if !bytes.Equal(r.shotsCSV, dr.shotsCSV) {
		r.fail("daemon shots.csv differs from a direct RunSpec (%d vs %d bytes)", len(r.shotsCSV), len(dr.shotsCSV))
	}
	if !bytes.Equal(r.maskPGM, dr.maskPGM) {
		r.fail("daemon mask.pgm differs from a direct RunSpec (%d vs %d bytes)", len(r.maskPGM), len(dr.maskPGM))
	}
}

// scoreN is the grid every mask is scored on: 4 nm/px for a 2048 nm
// clip, the paper's simulation scale. Coarser masks are upsampled
// (nearest: the same mask, finer contours) and finer ones box-averaged.
const scoreN = 512

// score runs metrics.Evaluate on the round's first mask at scoreN,
// untimed.
func (b *bench) score(p *plan, r *roundResult) (metrics.Report, error) {
	if len(r.shotLists) == 0 {
		return metrics.Report{}, fmt.Errorf("no job delivered a shot list")
	}
	mask := r.mask
	if mask == nil {
		var err error
		if mask, err = parsePGM(r.maskPGM); err != nil {
			return metrics.Report{}, err
		}
	}
	switch {
	case mask.W > scoreN:
		mask = grid.DownsampleBox(mask, mask.W/scoreN)
	case mask.W < scoreN:
		mask = grid.UpsampleNearest(mask, scoreN/mask.W)
	}
	cfg := optics.Default()
	cfg.TileNM = float64(p.layouts[0].TileNM)
	sim, err := litho.New(cfg, mask.W)
	if err != nil {
		return metrics.Report{}, err
	}
	res := sim.Simulate(mask)
	return metrics.Evaluate(p.layouts[0], res.ZNom, res.ZMax, res.ZMin, len(r.shotLists[0])), nil
}

// noSamples zeroes every metric that came out NaN or infinite (a median
// of no samples: some part of the run produced nothing to measure),
// records a failed check for each, and returns how many there were.
func noSamples(vals map[string]float64, checks *[]string) int {
	n := 0
	for name, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			vals[name] = 0
			*checks = append(*checks, name+": no samples")
			n++
		}
	}
	return n
}

func withUnits(vals map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(vals))
	for name, v := range vals {
		out[name] = metric{Value: v, Unit: units[name]}
	}
	return out
}

// printTable prints the metrics and their notes for a human reader.
func printTable(rf *resultFile) {
	names := make([]string, 0, len(rf.Metrics))
	for name := range rf.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d trace %v correct %v\n", rf.Workload, rf.Seed, rf.Trace, rf.Correct)
	for _, name := range names {
		m := rf.Metrics[name]
		fmt.Printf("  %-28s %16.4f %-8s %s\n", name, m.Value, m.Unit, rf.Notes[name])
	}
	keys := make([]string, 0, len(rf.Notes))
	for k := range rf.Notes {
		if _, ok := rf.Metrics[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s: %s\n", k, rf.Notes[k])
	}
	for _, c := range rf.Checks {
		fmt.Printf("  FAILED CHECK: %s\n", c)
	}
}

// traced is the per-layer run: a warm-up round, one untraced round for
// the tracing overhead baseline, one traced round, a solo daemon job against a direct
// RunSpec of the same spec, and the layer ladder. Spans are written to
// trace-<workload>-seed<n>.json when the run ends.
func (b *bench) traced(p *plan) (*resultFile, error) {
	tr := newTracer()
	vals := map[string]float64{}
	warm, err := b.round(p, 0, nil)
	if err != nil {
		return nil, err
	}
	base, err := b.round(p, 1, nil)
	if err != nil {
		return nil, err
	}
	r, err := b.round(p, 2, tr)
	if err != nil {
		return nil, err
	}
	for _, x := range []*roundResult{base, r} {
		if x.shotsSHA != warm.shotsSHA {
			x.fail("shot-list SHA-256 %s differs from the warm-up round's %s", x.shotsSHA[:12], warm.shotsSHA[:12])
		}
	}
	rep, err := b.score(p, warm)
	if err != nil {
		return nil, err
	}
	vals["metrics.epe_violations"] = float64(rep.EPE)
	vals["trace.makespan_s"] = r.makespan
	vals["trace.overhead_ratio"] = r.makespan / base.makespan
	vals["ilt.iters"] = float64(r.beats[0])
	vals["core.iters"] = float64(r.beats[1])
	vals["go.gc_cycles"] = r.gcCycles
	vals["go.gc_pause_ms"] = r.gcPause

	// The server rung. Paper-512 has no daemon of its own, so its rung
	// submits the same clip as a CircleRule job on the daemon's default
	// tiling: the server and flow layers measured on this workload's
	// input, predicted not to move its end-to-end figures.
	sp := p
	if p.paper {
		q := *p
		q.specs = []*server.JobSpec{{Layout: p.layouts[0].Name + ".glp", Method: "circlerule", GridN: 512}}
		q.specs[0].Normalize()
		sp = &q
	}
	solo, err := b.daemonRound(sp, sp.specs[:1], filepath.Join(b.work, "solo"), tr)
	if err != nil {
		return nil, err
	}
	dr, err := b.direct(sp, sp.specs[0], filepath.Join(b.work, "direct"), tr)
	if err != nil {
		return nil, err
	}
	checkParity(solo, dr)
	src := r
	if p.paper {
		src = solo
	}
	vals["server.submit_ms"] = median(src.submits)
	vals["server.queue_wait_ms"] = median(src.queueWaits)
	vals["server.first_tile_ms"] = median(src.firstTiles)
	vals["server.refused"] = float64(src.refused)
	vals["server.sse_reconnects"] = float64(warm.reconnects + base.reconnects + r.reconnects + solo.reconnects)
	vals["server.events"] = float64(src.events)
	vals["server.events_log_bytes"] = float64(src.eventBytes)
	vals["server.overhead_ms"] = solo.jobSpans[0] - dr.span
	vals["flow.tiles"] = float64(dr.res.Tiles)
	vals["flow.window_ms"] = median(dr.windows)
	vals["flow.bands"] = float64(dr.bands)
	vals["flow.run_s"] = dr.span / 1e3
	vals["flow.peak_bytes"] = float64(dr.res.PeakBytes)
	vals["checkpoint.journal_bytes"] = float64(dr.ckpt)
	vals["checkpoint.bytes_per_tile"] = float64(dr.ckpt) / float64(dr.res.Tiles)
	vals["wcache.hits"] = float64(dr.res.CacheHits)
	vals["wcache.misses"] = float64(dr.res.CacheMisses)
	vals["wcache.bytes"] = float64(dr.res.CacheBytes)
	vals["wcache.hit_ratio"] = 0
	if n := dr.res.CacheHits + dr.res.CacheMisses; n > 0 {
		vals["wcache.hit_ratio"] = float64(dr.res.CacheHits) / float64(n)
	}

	ladder := map[string]float64{}
	if err := b.ladder(p, tr, ladder); err != nil {
		return nil, err
	}
	for k, v := range ladder {
		if _, ok := perLayerUnits[k]; ok {
			vals[k] = v
		}
	}
	var order []float64
	for i := 0; i < ladderReps; i++ {
		order = append(order, tr.time(0, "fracture.order_shots", func() { fractureOrder(r) }))
	}
	vals["fracture.order_shots_ms"] = median(order)
	// CircleRule's share of a computed window: its mean time on the
	// workload's distinct window targets over the mean computed-window
	// span (the direct run's on fullchip-rule, the traced round's on the
	// CircleOpt workloads, where CircleRule seeds each window once).
	spans := r.windows
	if p.flowWindows {
		spans = dr.windows
	}
	vals["fracture.share"] = ladder["fracture.circlerule_mean_ms"] / mean(spans)

	failed, attempted := 0, 0
	var checks []string
	for _, x := range []*roundResult{warm, base, r, solo} {
		failed += x.failures
		attempted += x.attempts
		checks = append(checks, x.failed...)
	}
	failed += noSamples(vals, &checks)
	if err := tr.write(filepath.Join(b.root, ".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))); err != nil {
		return nil, err
	}
	return &resultFile{
		Correct: failed == 0,
		Metrics: withUnits(vals, perLayerUnits),
		Checks:  checks,
		Notes: map[string]string{
			"trace.overhead_ratio": fmt.Sprintf("traced makespan %.4f s over untraced %.4f s", r.makespan, base.makespan),
			"fft.gflops":           "computed: 5·N²·log2(N²) flops per 2-D transform over its median time",
			"server.overhead_ms":   fmt.Sprintf("solo daemon job %.3f ms minus direct RunSpec %.3f ms", solo.jobSpans[0], dr.span),
		},
		Attempted: attempted,
		Failed:    failed,
	}, nil
}
