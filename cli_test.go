package cfaopc_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the command-line tools and drives the full
// artifact flow a user would: generate layouts, optimize one, and re-score
// the emitted shot list.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		return out
	}
	genlayout := build("genlayout")
	cfaopc := build("cfaopc")
	evalmask := build("evalmask")

	work := t.TempDir()
	run := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, out)
		}
		return string(out)
	}

	// 1. Generate the suite (with GDS copies).
	out := run(genlayout, "-out", "layouts", "-gds")
	if !strings.Contains(out, "case10.glp") {
		t.Fatalf("genlayout output missing case10:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(work, "layouts", "case4.gds")); err != nil {
		t.Fatalf("GDS file missing: %v", err)
	}

	// 2. Optimize case 4 from its GLP file with a fast configuration.
	out = run(cfaopc, "-layout", "layouts/case4.glp", "-grid", "128",
		"-iters", "10", "-out", "out")
	if !strings.Contains(out, "shots") {
		t.Fatalf("cfaopc output unexpected:\n%s", out)
	}
	shotCSV := filepath.Join(work, "out", "case4_shots.csv")
	if _, err := os.Stat(shotCSV); err != nil {
		t.Fatalf("shot list missing: %v", err)
	}

	// 3. Re-score the shot list with evalmask; metrics must be reported.
	out = run(evalmask, "-layout", "layouts/case4.glp", "-shots",
		"out/case4_shots.csv", "-grid", "128")
	if !strings.Contains(out, "L2") || !strings.Contains(out, "shots") {
		t.Fatalf("evalmask output unexpected:\n%s", out)
	}

	// 4. GDS input path: optimizing from the GDS copy must agree on the
	// target (same layout, same shot-count ballpark).
	out = run(cfaopc, "-layout", "layouts/case4.gds", "-grid", "128",
		"-iters", "10", "-out", "out2", "-method", "develset")
	if !strings.Contains(out, "shots") {
		t.Fatalf("cfaopc GDS run unexpected:\n%s", out)
	}

	// 5. Tiled full-chip path: halo windows optimized by concurrent tile
	// workers; the per-window stats and stitched metrics must print.
	tiled := []string{"-layout", "layouts/case4.glp", "-grid", "128",
		"-iters", "8", "-tile-core", "64", "-tile-halo", "16", "-checkpoint", "run.ckpt"}
	out = run(cfaopc, append(tiled, "-tile-workers", "4", "-out", "out3")...)
	if !strings.Contains(out, "flow: 4 windows") || !strings.Contains(out, "shots") {
		t.Fatalf("cfaopc tiled run unexpected:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(work, "out3", "case4_shots.csv")); err != nil {
		t.Fatalf("tiled shot list missing: %v", err)
	}

	// 6. Compacting that run's journal with the same flags must match its
	// fingerprint, engine chain included.
	out = run(cfaopc, append(tiled, "-checkpoint-compact")...)
	if !strings.Contains(out, "compacted run.ckpt") {
		t.Fatalf("cfaopc -checkpoint-compact unexpected:\n%s", out)
	}
}
