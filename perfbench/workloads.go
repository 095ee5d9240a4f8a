package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"cfaopc/internal/core"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/opt"
	"cfaopc/internal/optics"
	"cfaopc/internal/server"
	"cfaopc/internal/wcache"
)

// Workload knobs. Changing any of them changes what the benchmark
// measures, so a change that claims a gain must leave them alone.
const (
	daemonIters     = 2 // daemon-192: CircleOpt stage-2 iterations (stage 1 is the engine's fixed 12)
	paperInitIters  = 4 // paper-512: stage-1 MOSAIC iterations
	paperIters      = 8 // paper-512: stage-2 CircleOpt iterations
	fullchipJobs    = 4 // fullchip-rule: jobs per batch
	fullchipActive  = 2 // fullchip-rule: daemon MaxActive and open SSE streams
	cacheBytes      = 64 << 20
	setupReps       = 3               // at least this many set-ups...
	setupMin        = 3 * time.Second // ...and at least this long, so short set-ups get many samples
	setupMaxReps    = 400
	loopKOpt        = 5 // kernels inside optimization loops, the daemon spec's default
	samplePeriod    = 5 * time.Millisecond
	spanSlackMillis = 1.0
	// roundsCap stops a run that is still short of its minimum rounds once
	// it has measured this multiple of --seconds, so a slow host cannot
	// stretch a run without bound; the tail notes then show the smaller
	// sample.
	roundsCap = 1.6
	// flowDirects is how many direct RunSpecs fullchip-rule's window
	// spans pool (two passes over the batch: about 2300 windows, inside
	// the p99 band of the tail ladder).
	flowDirects = 2 * fullchipJobs
)

// plan is one workload's generated inputs and shape.
type plan struct {
	gridN     int
	dx        float64 // nm per pixel of the workload grid
	window    int     // window edge in px (the ladder's size)
	layoutDir string
	layouts   []*layout.Layout // one per job
	specs     []*server.JobSpec
	maxActive int
	streams   int
	cached    bool // a benchmark-owned window cache shared by each batch
	// minRounds and maxRounds bound the rounds of a run, the warm-up
	// round included, so that its measured heartbeat-gap count stays
	// inside one band of the tail ladder (40-99 gaps: p75) however fast
	// the host is.
	minRounds, maxRounds int
	// flowWindows marks the CircleRule workload. Its windows take
	// milliseconds, and with two jobs busy on the CPUs the SSE stream
	// delivers their tile events in batches (a quarter of the arrival gaps
	// of computed windows measured under 15 µs), so arrival gaps cannot
	// time them: window spans come from the flow.Event tile events of
	// direct RunSpecs run between the rounds instead. CircleRule emits no
	// heartbeats; its optimizer step is one window, so iteration gaps are
	// those window spans too.
	flowWindows bool
	paper       bool // single-clip paper path, no daemon
}

// windowOptics is the imaging condition of one window, as the flow
// derives it.
func (p *plan) windowOptics() optics.Config {
	o := optics.Default()
	o.TileNM = float64(p.window) * p.dx
	return o
}

func (p *plan) ruleConfig() fracture.CircleRuleConfig {
	cfg := fracture.DefaultCircleRuleConfig(p.dx)
	cfg.SampleDist = max(1, int(32/p.dx))
	return cfg
}

func newPlan(name string, seed int64, layoutDir string) (*plan, error) {
	p := &plan{layoutDir: layoutDir, streams: 1, maxActive: 1}
	var err error
	switch name {
	case "daemon-192":
		p.gridN, p.window, p.minRounds, p.maxRounds = 256, 192, 5, 9 // 12 gaps a round
		var l *layout.Layout
		if l, err = daemonLayout(seed, 0); err == nil {
			p.layouts = append(p.layouts, l)
			p.specs = append(p.specs, &server.JobSpec{Method: "circleopt", Iters: daemonIters})
		}
	case "paper-512":
		p.gridN, p.window, p.minRounds, p.maxRounds, p.paper = 512, 512, 5, 10, true // 10 gaps a round
		var l *layout.Layout
		if l, err = paperLayout(seed); err == nil {
			p.layouts = append(p.layouts, l)
		}
	case "fullchip-rule":
		p.gridN, p.window, p.minRounds, p.maxRounds, p.flowWindows = 2048, 96, flowDirects, 10, true
		p.maxActive, p.streams, p.cached = fullchipActive, fullchipActive, true
		for j := 0; j < fullchipJobs && err == nil; j++ {
			var l *layout.Layout
			if l, err = fullchipLayout(seed, j); err == nil {
				p.layouts = append(p.layouts, l)
				p.specs = append(p.specs, &server.JobSpec{Method: "circlerule", GridN: 2048, TileCore: 64, TileHalo: 16})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have daemon-192, paper-512, fullchip-rule)", name)
	}
	if err != nil {
		return nil, err
	}
	for i, l := range p.layouts {
		file, err := writeLayout(layoutDir, l)
		if err != nil {
			return nil, err
		}
		if i < len(p.specs) {
			p.specs[i].Layout = file
			p.specs[i].Normalize()
			if err := p.specs[i].Validate(); err != nil {
				return nil, err
			}
		}
	}
	p.dx = float64(p.layouts[0].TileNM) / float64(p.gridN)
	return p, nil
}

// roundResult is what one round of a workload delivered and how long
// each part took.
type roundResult struct {
	makespan float64 // s, first submit to the last artifact durable
	mpx      float64 // mask megapixels delivered
	gaps     []float64
	windows  []float64
	peakHeap float64 // MB
	alloc    float64 // MB
	gcCycles float64
	gcPause  float64 // ms

	shotsSHA string
	shots    int
	attempts int // jobs submitted plus occupied tiles
	failures int // jobs not done, refused submits, degraded tiles, failed checks
	failed   []string

	jobSpans   []float64 // ms, submit to terminal
	submits    []float64 // ms
	queueWaits []float64 // ms
	firstTiles []float64 // ms
	refused    int
	reconnects int // SSE streams resumed after ending before their terminal event
	events     int
	eventBytes int64
	beats      [2]int // stage-1 and stage-2 heartbeats
	shotLists  [][]geom.Circle
	maskPGM    []byte // first job's mask, for scoring and the parity check
	shotsCSV   []byte // first job's shot list
	mask       *grid.Real
}

func (r *roundResult) fail(format string, args ...any) {
	r.failures++
	r.failed = append(r.failed, fmt.Sprintf(format, args...))
}

// memWatch samples the live heap while a round runs and reads the
// allocation and GC counters around it. The live heap is the one the
// last GC marked: the heap's total size also counts garbage not yet
// collected, which swings with GC timing (a third of its median between
// runs of the same round).
type memWatch struct {
	ms0  runtime.MemStats
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchMemory() *memWatch {
	runtime.GC()
	w := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&w.ms0)
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > w.peak {
				w.peak = v
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *memWatch) finish(r *roundResult) {
	close(w.stop)
	<-w.done
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.peakHeap = float64(w.peak) / (1 << 20)
	r.alloc = float64(ms1.TotalAlloc-w.ms0.TotalAlloc) / (1 << 20)
	r.gcCycles = float64(ms1.NumGC - w.ms0.NumGC)
	r.gcPause = float64(ms1.PauseTotalNs-w.ms0.PauseTotalNs) / 1e6
}

// jobRun is one submitted job as the client saw it.
type jobRun struct {
	spec      *server.JobSpec
	id        string
	submitAt  time.Time
	submitted time.Time
	*stream
	err error
}

// daemonRound runs one batch through a fresh daemon: submit every spec,
// follow the streams (at most p.streams open at once, in submission
// order), then fetch the artifacts outside the timed region.
func (b *bench) daemonRound(p *plan, specs []*server.JobSpec, dataDir string, tr *tracer) (*roundResult, error) {
	var cache *wcache.Cache
	if p.cached {
		var err error
		if cache, err = wcache.New(wcache.Config{MaxBytes: cacheBytes}); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(dataDir, p.layoutDir, p.maxActive, cache)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	r := &roundResult{}
	mw := watchMemory()
	t0 := time.Now()
	jobs := make([]*jobRun, 0, len(specs))
	for _, spec := range specs {
		j := &jobRun{spec: spec, submitAt: time.Now()}
		var refused bool
		j.id, refused, j.err = d.submit(spec)
		j.submitted = time.Now()
		if refused {
			r.refused++
		} else if j.err != nil {
			mw.finish(r)
			return nil, j.err
		}
		jobs = append(jobs, j)
	}
	sem := make(chan struct{}, p.streams)
	var wg sync.WaitGroup
	for _, j := range jobs {
		if j.id == "" {
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(j *jobRun) {
			defer wg.Done()
			defer func() { <-sem }()
			j.stream, j.err = d.follow(j.id)
		}(j)
	}
	wg.Wait()
	end := t0
	for _, j := range jobs {
		if j.stream == nil {
			continue
		}
		if n := len(j.evs); n > 0 && j.evs[n-1].at.After(end) {
			end = j.evs[n-1].at
		}
	}
	mw.finish(r)
	r.makespan = end.Sub(t0).Seconds()

	var all bytes.Buffer
	for i, j := range jobs {
		analyzeJob(j, r, tr)
		if j.err != nil || !jobDone(j) {
			continue
		}
		csv, err := d.fetch(j.id, "shots")
		if err != nil {
			return nil, err
		}
		shots, err := fracture.ReadShotsCSV(bytes.NewReader(csv), p.dx)
		if err != nil {
			return nil, fmt.Errorf("job %s shots: %w", j.id, err)
		}
		r.shots += len(shots)
		r.shotLists = append(r.shotLists, shots)
		r.mpx += float64(j.spec.GridN*j.spec.GridN) / 1e6
		r.eventBytes += d.eventLogBytes(j.id)
		all.Write(csv)
		if i == 0 {
			r.shotsCSV = csv
			if r.maskPGM, err = d.fetch(j.id, "mask"); err != nil {
				return nil, err
			}
		}
	}
	sum := sha256.Sum256(all.Bytes())
	r.shotsSHA = hex.EncodeToString(sum[:])
	return r, nil
}

func jobDone(j *jobRun) bool {
	if j.stream == nil {
		return false
	}
	n := len(j.evs)
	return n > 0 && j.evs[n-1].ev.Kind == "state" && j.evs[n-1].ev.State == "done"
}

// analyzeJob turns one job's event arrivals into spans and samples. A
// tile's span runs from the previous tile event (or the running state)
// to its own event; an iteration's from the previous heartbeat of the
// same tile and stage. TileStat.Wall is never read: in-process it is
// always 0 (runTile's deferred store lands after the return value was
// copied), and the journaled and SSE copies carry the same zero.
func analyzeJob(j *jobRun, r *roundResult, tr *tracer) {
	r.attempts++
	if j.stream != nil {
		r.reconnects += j.reconnects
	}
	if j.err != nil || len(j.evs) == 0 {
		r.fail("job %q: %v", j.id, j.err)
		return
	}
	if j.dropped > 0 {
		r.fail("job %s: %d events dropped from the stream", j.id, j.dropped)
	}
	r.submits = append(r.submits, ms(j.submitted.Sub(j.submitAt)))
	r.events += len(j.evs)
	last := j.evs[len(j.evs)-1]
	jobSpan := ms(last.at.Sub(j.submitAt))
	r.jobSpans = append(r.jobSpans, jobSpan)
	jobID := tr.add(0, "job", j.id, j.submitAt, last.at)

	var running time.Time
	for _, a := range j.evs {
		if a.ev.Kind == "state" && a.ev.State == "running" {
			running = a.at
			break
		}
	}
	if running.IsZero() {
		r.fail("job %s: no running event", j.id)
		return
	}
	r.queueWaits = append(r.queueWaits, ms(running.Sub(j.submitAt)))
	tr.add(jobID, "queue", j.id, j.submitAt, running)

	type beat struct {
		iter, stage int
		at          time.Time
	}
	var pending []beat
	prevTile, prevBand := running, running
	tiles, tileSum := 0, 0.0
	for _, a := range j.evs {
		switch a.ev.Kind {
		case "beat":
			st := 0
			if n := len(pending); n > 0 {
				st = pending[n-1].stage
				if a.ev.Iter == 0 {
					st++
				}
			}
			r.beats[min(st, 1)]++
			pending = append(pending, beat{a.ev.Iter, st, a.at})
		case "tile":
			if tiles == 0 {
				r.firstTiles = append(r.firstTiles, ms(a.at.Sub(running)))
			}
			tiles++
			span := ms(a.at.Sub(prevTile))
			tileSum += span
			tileID := tr.add(jobID, "tile", j.id, prevTile, a.at)
			if a.ev.Path != "" {
				r.attempts++
				// A cache hit computes nothing; its span is a journal fsync.
				if !a.ev.CacheHit {
					r.windows = append(r.windows, span)
				}
				if a.ev.Path != "primary" {
					r.fail("job %s tile %d: path %s", j.id, a.ev.Tile, a.ev.Path)
				}
			}
			for i := 1; i < len(pending); i++ {
				prev, cur := pending[i-1], pending[i]
				if cur.stage != prev.stage || cur.iter != prev.iter+1 {
					continue
				}
				r.gaps = append(r.gaps, ms(cur.at.Sub(prev.at)))
				name := "iter.mosaic"
				if cur.stage > 0 {
					name = "iter.circleopt"
				}
				tr.add(tileID, name, j.id, prev.at, cur.at)
			}
			pending = pending[:0]
			prevTile = a.at
		case "band":
			tr.add(jobID, "band", j.id, prevBand, a.at)
			prevBand = a.at
		}
	}
	if !jobDone(j) {
		r.fail("job %s ended %s: %s", j.id, last.ev.State, last.ev.Error)
	}
	want := (j.spec.GridN / j.spec.TileCore) * (j.spec.GridN / j.spec.TileCore)
	if j.dropped == 0 && tiles != want {
		r.fail("job %s: %d tile events, want %d", j.id, tiles, want)
	}
	// Self-check: tile spans are disjoint slices of the job, so they
	// must sum to no more than the job span.
	if tileSum > jobSpan+spanSlackMillis {
		r.fail("job %s: tile spans sum to %.3f ms, beyond the %.3f ms job span", j.id, tileSum, jobSpan)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// paperRound runs the paper's single-clip path once: read the clip,
// build the simulator, CircleOpt it, and write the ordered shot list
// durably. Heartbeats come from the optimizer's public progress hook.
func (b *bench) paperRound(p *plan, tr *tracer) (*roundResult, error) {
	r := &roundResult{attempts: 2} // the job and its one window
	type beat struct {
		iter int
		at   time.Time
	}
	var beats []beat
	mw := watchMemory()
	t0 := time.Now()
	l, err := readLayout(filepath.Join(p.layoutDir, p.layouts[0].Name+".glp"))
	if err != nil {
		mw.finish(r)
		return nil, err
	}
	target := l.Rasterize(p.gridN)
	sim, err := litho.New(p.windowOptics(), p.gridN)
	if err != nil {
		mw.finish(r)
		return nil, err
	}
	sim.KOpt, sim.Workers = loopKOpt, 1
	sim.Ctx = opt.WithProgress(context.Background(), func(iter int, _ float64, at time.Time) {
		beats = append(beats, beat{iter, at})
	})
	cfg := core.DefaultConfig(p.dx)
	cfg.Iterations = paperIters
	co := &core.CircleOpt{Cfg: cfg, InitIterations: paperInitIters, RuleCfg: p.ruleConfig()}
	optStart := time.Now()
	res := co.Optimize(sim, target)
	optEnd := time.Now()
	shots := fracture.OrderShots(res.Shots)
	var csv bytes.Buffer
	if err := fracture.WriteShotsCSV(&csv, shots, p.dx); err != nil {
		mw.finish(r)
		return nil, err
	}
	if err := writeDurable(filepath.Join(b.work, "paper-shots.csv"), csv.Bytes()); err != nil {
		mw.finish(r)
		return nil, err
	}
	end := time.Now()
	mw.finish(r)

	r.makespan = end.Sub(t0).Seconds()
	r.mpx = float64(p.gridN*p.gridN) / 1e6
	r.windows = []float64{ms(optEnd.Sub(optStart))}
	r.shots = len(shots)
	r.shotLists = [][]geom.Circle{shots}
	r.shotsCSV = csv.Bytes()
	r.mask = res.Mask
	sum := sha256.Sum256(csv.Bytes())
	r.shotsSHA = hex.EncodeToString(sum[:])

	jobID := tr.add(0, "job", "paper", t0, end)
	tileID := tr.add(jobID, "tile", "paper", optStart, optEnd)
	stage := 0
	for i, bt := range beats {
		if i > 0 && bt.iter == 0 {
			stage++
		}
		if stage == 0 {
			r.beats[0]++
		} else {
			r.beats[1]++
		}
		if i == 0 || bt.iter != beats[i-1].iter+1 {
			continue
		}
		r.gaps = append(r.gaps, ms(bt.at.Sub(beats[i-1].at)))
		name := "iter.mosaic"
		if stage > 0 {
			name = "iter.circleopt"
		}
		tr.add(tileID, name, "paper", beats[i-1].at, bt.at)
	}
	if r.beats[0] != paperInitIters || r.beats[1] != paperIters {
		r.fail("paper: %d stage-1 and %d stage-2 heartbeats, want %d and %d", r.beats[0], r.beats[1], paperInitIters, paperIters)
	}
	if len(shots) == 0 {
		r.fail("paper: no shots")
	}
	return r, nil
}

// writeDurable writes b to path and syncs it, as the daemon does for its
// shot list before recording a job done.
func writeDurable(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parsePGM decodes the daemon's binary P5 mask into a 0/1 grid.
func parsePGM(b []byte) (*grid.Real, error) {
	var w, h, maxv int
	var off int
	fields := 0
	for off < len(b) && fields < 4 {
		for off < len(b) && (b[off] == ' ' || b[off] == '\n' || b[off] == '\r' || b[off] == '\t') {
			off++
		}
		start := off
		for off < len(b) && b[off] != ' ' && b[off] != '\n' && b[off] != '\r' && b[off] != '\t' {
			off++
		}
		tok := string(b[start:off])
		switch fields {
		case 0:
			if tok != "P5" {
				return nil, fmt.Errorf("pgm: magic %q", tok)
			}
		case 1:
			w, _ = strconv.Atoi(tok)
		case 2:
			h, _ = strconv.Atoi(tok)
		case 3:
			maxv, _ = strconv.Atoi(tok)
		}
		fields++
	}
	off++ // the single whitespace byte after maxval
	if w <= 0 || h <= 0 || maxv <= 0 || len(b)-off != w*h {
		return nil, fmt.Errorf("pgm: %dx%d max %d with %d data bytes", w, h, maxv, len(b)-off)
	}
	g := grid.NewReal(w, h)
	for i, v := range b[off:] {
		g.Data[i] = float64(v) / float64(maxv)
	}
	return g, nil
}
