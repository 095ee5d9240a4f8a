package server

import (
	"bufio"
	"context"
	"fmt"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/grid"
	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/wcache"
)

// RunOpts carries the per-invocation plumbing around a job spec: where
// to persist, where to stream, what to observe. The zero value runs
// the spec with no checkpoint, no mask file, and no observers.
type RunOpts struct {
	// Checkpoint journals completed tiles so an interrupted run
	// resumes byte-identically ("" = no journal).
	Checkpoint string
	// MaskPath streams the stitched mask there as a binary PGM in row
	// bands ("" = no mask file). On a resumed run the file is
	// rewritten from row zero; bands re-emit deterministically, so the
	// final bytes match an uninterrupted run.
	MaskPath string
	// ShotsPath writes the beam-ordered shot list as CSV after the
	// flow completes ("" = no shot file).
	ShotsPath string
	// Events observes the flow's heartbeats and tile completions; it
	// must never block (see flow.EventSink).
	Events flow.EventSink
	// OnBand is called after each mask band is durably flushed to
	// MaskPath, with the band's first row and row count.
	OnBand func(row, rows int)
	// Drain, when closed, stops dispatching new tiles; in-flight tiles
	// finish and checkpoint, and the run returns flow.ErrDrained.
	Drain <-chan struct{}
	// FS is the filesystem seam every artifact write goes through —
	// the flow checkpoint, quarantine bundles, the streamed mask PGM,
	// and the shot CSV. nil means the real filesystem.
	FS iox.FS
	// Cache is a shared window dedup cache for the run (nil = off).
	// Caching changes wall time only, never bytes, so daemon/CLI
	// artifact parity holds with or without it.
	Cache *wcache.Cache
}

// RunSpec executes a normalized job spec through the tiled flow. It is
// the one code path shared by the daemon and the cfaopc -job CLI mode,
// which is what makes "daemon output == direct CLI output" a
// byte-for-byte statement rather than a hope.
func RunSpec(ctx context.Context, l *layout.Layout, spec *JobSpec, o RunOpts) (*flow.Result, error) {
	dx := float64(l.TileNM) / float64(spec.GridN)
	cfg := flow.Config{
		GridN:       spec.GridN,
		CorePx:      spec.TileCore,
		HaloPx:      spec.TileHalo,
		Optics:      optics.Default(),
		KOpt:        spec.KOpt,
		TileWorkers: spec.TileWorkers,
		Engines: engine.Meta(spec.Method, spec.Fallback,
			engine.Options{Iters: spec.Iters, Gamma: spec.Gamma, SampleNM: spec.SampleNM}),
		TileRetries: 1,
		// MRC radius window (12-76 nm) scaled to window pixels, with
		// the same tolerance band the CLI uses.
		RMinPx:         6 / dx,
		RMaxPx:         152 / dx,
		CheckpointPath: o.Checkpoint,
		FS:             o.FS,
		Cache:          o.Cache,
		PartialEvery:   spec.PartialEvery,
		KeepMask:       false, // the service product is shots + streamed bands
		Events:         o.Events,
		Drain:          o.Drain,
	}

	var bands *bandFile
	if o.MaskPath != "" {
		var err error
		bands, err = newBandFile(o.FS, o.MaskPath, spec.GridN, o.OnBand)
		if err != nil {
			return nil, err
		}
		cfg.MaskWriter = bands
	}

	res, err := flow.RunContext(ctx, l, cfg)
	if err != nil {
		if bands != nil {
			bands.abort()
		}
		return res, err
	}
	if bands != nil {
		if err := bands.Close(); err != nil {
			return res, err
		}
	}
	if o.ShotsPath != "" {
		shots := fracture.OrderShots(res.Shots)
		f, err := iox.OrOS(o.FS).Create(o.ShotsPath)
		if err != nil {
			return res, err
		}
		bw := bufio.NewWriter(f)
		if err := fracture.WriteShotsCSV(bw, shots, dx); err != nil {
			f.Close()
			return res, err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return res, err
		}
		// The shot list is the product; it must be on the platter before
		// the caller records the job done.
		if err := f.Sync(); err != nil {
			f.Close()
			return res, err
		}
		if err := f.Close(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// bandFile streams the stitched mask to disk as a binary PGM (P5), one
// flow band at a time, flushing each band before reporting it so a
// follower reading the file never sees a partially written band it was
// told about. Bands arrive top-to-bottom; Close verifies every row
// landed.
type bandFile struct {
	f      iox.File
	w      *bufio.Writer
	n      int
	next   int // next expected global row
	buf    []byte
	onBand func(row, rows int)
}

func newBandFile(fsys iox.FS, path string, n int, onBand func(row, rows int)) (*bandFile, error) {
	f, err := iox.OrOS(fsys).Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", n, n); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return &bandFile{f: f, w: w, n: n, buf: make([]byte, n), onBand: onBand}, nil
}

func (p *bandFile) WriteBand(y0 int, band *grid.Real) error {
	if y0 != p.next || band.W != p.n {
		return fmt.Errorf("pgm: band at row %d (width %d), expected row %d width %d", y0, band.W, p.next, p.n)
	}
	for y := 0; y < band.H; y++ {
		for x := 0; x < p.n; x++ {
			if band.Data[y*p.n+x] > 0.5 {
				p.buf[x] = 255
			} else {
				p.buf[x] = 0
			}
		}
		if _, err := p.w.Write(p.buf); err != nil {
			return err
		}
	}
	if err := p.w.Flush(); err != nil {
		return err
	}
	p.next += band.H
	if p.onBand != nil {
		p.onBand(y0, band.H)
	}
	return nil
}

func (p *bandFile) Close() error {
	if p.next != p.n {
		p.f.Close()
		return fmt.Errorf("pgm: only %d of %d rows streamed", p.next, p.n)
	}
	if err := p.w.Flush(); err != nil {
		p.f.Close()
		return err
	}
	// Per-band flushes make rows visible to followers; this final fsync
	// makes the finished mask crash-durable before the job is recorded
	// done.
	if err := p.f.Sync(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}

// abort releases the file handle after a failed run without enforcing
// the all-rows-landed contract; the partial file is left for the
// resumed run to rewrite from row zero.
func (p *bandFile) abort() { p.f.Close() }
