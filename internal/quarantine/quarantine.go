// Package quarantine defines the self-contained repro bundle the tiled
// flow writes when a window exhausts every optimizer (primary → retries
// → fallback) and degrades to empty. PR 2's degradation policy keeps
// the run alive but used to discard the evidence; a bundle preserves
// everything needed to replay the failure offline, deterministically,
// on another machine:
//
//   - the window target raster plus the layout rects that produced it,
//   - the flow configuration fingerprint and every tiling/validation
//     knob that shaped the attempts,
//   - engine metadata sufficient to rebuild the exact optimizer chain,
//   - the per-attempt error/path history as recorded live,
//   - the injected fault script, when the failure came from a harness.
//
// On disk a bundle is a gob blob framed exactly like a checkpoint
// record — magic, length, CRC32 — so bit rot is detected, plus a
// human-readable JSON sidecar (raster elided) for quick triage with
// nothing but a pager. cmd/replaytile consumes bundles; this package
// deliberately imports no flow code so the schema stays a leaf both the
// flow and the replay tool can share.
package quarantine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"cfaopc/internal/iox"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
)

var magic = []byte("CFQRB1\n")

// FormatVersion is the bundle schema version; Load rejects others.
const FormatVersion = 1

// MaxBundleBytes bounds a bundle payload so a corrupt length prefix
// cannot demand an absurd allocation during Load.
const MaxBundleBytes = 256 << 20

// EngineMeta describes how to rebuild the optimizer chain offline: the
// named primary and fallback engines plus the resolution-independent
// knobs cmd/cfaopc resolves them with. It is copied verbatim from
// flow.Config into every bundle so cmd/replaytile reconstructs the
// exact attempt sequence.
type EngineMeta struct {
	Primary  string  // e.g. "circleopt"
	Fallback string  // e.g. "circlerule"; "" when no fallback was set
	Iters    int     // optimization iterations
	Gamma    float64 // CircleOpt sparsity weight at the paper's 1 nm/px scale
	SampleNM float64 // circle sample distance in nm
}

// Attempt is one optimizer invocation as recorded live by the flow: it
// feeds TileStat.Failure, the worker reply frame, quarantine bundles
// and replay comparison.
type Attempt struct {
	Index    int    // global attempt counter; the fallback is TileRetries+1
	Engine   string // "primary" or "fallback"
	Err      string // failure mode; "" for a success (never in a bundle)
	Iters    int    // heartbeats emitted before the attempt ended
	LastLoss float64
	Stalled  bool // killed by the stall watchdog, not the wall deadline
}

// Fault is one injected failure mode for a single optimizer attempt,
// the unit of the flow's deterministic fault scripts (flow.FaultPlan).
// A bundle records its tile's script so replays re-inject the same
// failures. Fields compose: Stall and Sleep run first, then Panic, then
// NaN, then BadRadius.
type Fault struct {
	// Sleep blocks before anything else, respecting the attempt's
	// context so per-tile timeouts and run cancellation stay prompt.
	Sleep time.Duration
	// Panic aborts the attempt with a panic, exercising the isolation
	// recover path.
	Panic bool
	// NaN returns a NaN-poisoned mask and shot list, exercising output
	// validation.
	NaN bool
	// BadRadius returns one shot with a radius far outside any sane
	// [RMin, RMax] bound, exercising the radius check.
	BadRadius bool
	// Stall blocks until the attempt's context is canceled without ever
	// emitting a heartbeat — a wedged optimizer, the failure mode the
	// stall watchdog exists to kill early.
	Stall bool
	// BeatEvery, when > 0, emits synthetic optimizer heartbeats at that
	// interval while the injected Sleep runs — the signature of a tile
	// that is slow but alive, which the stall watchdog must spare.
	BeatEvery time.Duration
	// Kill, when > 0, SIGKILLs the whole process — mid-tile, no reply,
	// no cleanup — while the tile's dispatch counter is below Kill, but
	// only inside a tile-worker subprocess. Kill: 1 scripts one crash
	// followed by a clean redispatch; a huge Kill scripts a crash loop
	// that must trip the supervisor's circuit breaker. It is a no-op
	// in-process, so the same script drives proc-mode crash testing and
	// leaves serial reference runs untouched.
	Kill int
}

// Tile identifies the quarantined window.
type Tile struct {
	Index    int // row-major window index
	CX, CY   int // core origin in full-grid pixels
	OriginX  int // window origin (core minus halo) in full-grid pixels
	OriginY  int
	WindowPx int // window edge in pixels
}

// Bundle is the self-contained repro artifact for one failed tile.
type Bundle struct {
	FormatVersion int
	Fingerprint   string // the flow's (layout, tiling) fingerprint

	LayoutName string
	TileNM     int
	GridN      int
	CorePx     int
	HaloPx     int
	KOpt       int

	TileRetries  int
	TileTimeout  time.Duration
	StallTimeout time.Duration
	RMinPx       float64
	RMaxPx       float64

	// Optics is the window-level imaging condition (TileNM already set
	// to the window's physical size), ready for litho.New.
	Optics  optics.Config
	Engines EngineMeta

	Tile Tile
	// Target is the window target raster, row-major WindowPx². It is
	// elided from the JSON sidecar.
	TargetW, TargetH int
	Target           []float64
	// Rects are the layout rectangles (full-grid nm coordinates) whose
	// span overlaps the window — enough geometry to re-derive Target.
	Rects []layout.Rect

	// Faults is the injected fault script for this tile, when the
	// failure came from a deterministic harness run; empty otherwise.
	Faults []Fault

	Attempts []Attempt
}

// ValidateTask checks the invariants of a bundle used as a live task
// encoding (procpool wire protocol): everything Load relies on except
// the attempt history, which a not-yet-run tile does not have.
func (b *Bundle) ValidateTask() error {
	if b.FormatVersion != FormatVersion {
		return fmt.Errorf("quarantine: bundle format v%d, this build reads v%d", b.FormatVersion, FormatVersion)
	}
	if b.TargetW <= 0 || b.TargetH <= 0 || len(b.Target) != b.TargetW*b.TargetH {
		return fmt.Errorf("quarantine: target raster %dx%d with %d pixels", b.TargetW, b.TargetH, len(b.Target))
	}
	if b.Tile.WindowPx != b.TargetW {
		return fmt.Errorf("quarantine: window %d px but target width %d", b.Tile.WindowPx, b.TargetW)
	}
	return nil
}

// Validate checks the structural invariants Load relies on: a stored
// repro bundle is a task-grade bundle plus a recorded attempt history.
func (b *Bundle) Validate() error {
	if err := b.ValidateTask(); err != nil {
		return err
	}
	if len(b.Attempts) == 0 {
		return fmt.Errorf("quarantine: bundle records no attempts")
	}
	return nil
}

// BaseName is the deterministic file stem for a tile's bundle.
func BaseName(tileIndex int) string { return fmt.Sprintf("tile%04d", tileIndex) }

// Save writes b on the real filesystem; see SaveFS.
func Save(dir string, b *Bundle) (string, error) {
	return SaveFS(nil, dir, b)
}

// SaveFS writes b under dir as <tileNNNN>.qrb (CRC-guarded gob) plus a
// <tileNNNN>.json sidecar, overwriting previous bundles for the same
// tile, and returns the .qrb path. Writes go through a temp file +
// fsync + rename + parent-dir fsync so a crash mid-save never leaves a
// torn bundle behind and a saved bundle survives power loss.
func SaveFS(fsys iox.FS, dir string, b *Bundle) (string, error) {
	fsys = iox.OrOS(fsys)
	if err := b.Validate(); err != nil {
		return "", err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("quarantine: %w", err)
	}
	payload, err := encodeGob(b)
	if err != nil {
		return "", fmt.Errorf("quarantine: encode: %w", err)
	}
	if len(payload) > MaxBundleBytes {
		return "", fmt.Errorf("quarantine: bundle %d bytes exceeds limit", len(payload))
	}
	framed := make([]byte, 0, len(magic)+8+len(payload))
	framed = append(framed, magic...)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	framed = append(framed, hdr[:]...)
	framed = append(framed, payload...)

	base := filepath.Join(dir, BaseName(b.Tile.Index))
	path := base + ".qrb"
	if err := iox.AtomicWrite(fsys, path, framed, 0o644); err != nil {
		return "", fmt.Errorf("quarantine: %w", err)
	}
	side, err := json.MarshalIndent(b.sidecar(), "", "  ")
	if err != nil {
		return "", fmt.Errorf("quarantine: sidecar: %w", err)
	}
	if err := iox.AtomicWrite(fsys, base+".json", append(side, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("quarantine: %w", err)
	}
	return path, nil
}

// Load reads and verifies a bundle written by Save.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic)+8 || string(data[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("quarantine: %s is not a bundle (bad magic)", path)
	}
	ln := binary.BigEndian.Uint32(data[len(magic) : len(magic)+4])
	want := binary.BigEndian.Uint32(data[len(magic)+4 : len(magic)+8])
	if ln > MaxBundleBytes {
		return nil, fmt.Errorf("quarantine: declared payload %d bytes exceeds limit", ln)
	}
	payload := data[len(magic)+8:]
	if uint32(len(payload)) != ln {
		return nil, fmt.Errorf("quarantine: %s torn: %d payload bytes, header declares %d", path, len(payload), ln)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("quarantine: %s failed its CRC (bit rot or torn write)", path)
	}
	b := new(Bundle)
	if err := decodeGob(payload, b); err != nil {
		return nil, fmt.Errorf("quarantine: decode %s: %w", path, err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// sidecar is the human-readable JSON view: the whole bundle minus the
// raster, plus a one-number summary of it.
func (b *Bundle) sidecar() any {
	c := *b
	c.Target = nil
	occupied := 0
	for _, v := range b.Target {
		if v > 0.5 {
			occupied++
		}
	}
	return struct {
		*Bundle
		TargetOccupiedPx int
	}{&c, occupied}
}
