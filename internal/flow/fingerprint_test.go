package flow

import (
	"os/exec"
	"strings"
	"testing"

	"cfaopc/internal/engine"
	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/quarantine"
)

// TestFingerprintGolden pins the window-cache key prefix and the
// checkpoint journal fingerprint for two production configs: the one
// server.RunSpec builds for the daemon's default spec ({"case":1}), and
// the one `cfaopc -case 4 -tile-core 64 -method circleopt -fallback
// circlerule` builds. A change here orphans every existing .wce cache
// entry and journal, so it must be a deliberate version bump, never a
// side effect (EngineMeta's %+v rendering is part of the key).
func TestFingerprintGolden(t *testing.T) {
	suite := layout.GenerateSuite()
	// Both binaries use the same tiling defaults and validation window.
	mk := func(l *layout.Layout, core int, engines quarantine.EngineMeta) Config {
		dx := float64(l.TileNM) / 256
		return Config{
			GridN: 256, CorePx: core, HaloPx: 32, Optics: optics.Default(), KOpt: 5,
			TileRetries: 1, RMinPx: 6 / dx, RMaxPx: 152 / dx, Engines: engines,
		}
	}
	cases := []struct {
		name            string
		l               *layout.Layout
		cfg             Config
		wantCfg, wantFP string
	}{
		{
			name:    "daemon default spec",
			l:       suite[0],
			cfg:     mk(suite[0], 128, engine.Meta("circleopt", "circlerule", engine.Defaults())),
			wantCfg: "cfaopc-cfg-v1 0eb2de37b373e5a2",
			wantFP:  "cfaopc-flow-v4 67fea06114b28dc8",
		},
		{
			name:    "cfaopc -tile-core 64",
			l:       suite[3],
			cfg:     mk(suite[3], 64, engine.Meta("CircleOpt", "circlerule", engine.Defaults())),
			wantCfg: "cfaopc-cfg-v1 c629303df35c32e7",
			wantFP:  "cfaopc-flow-v4 fa33fa56517520e3",
		},
	}
	for _, tc := range cases {
		dx := float64(tc.l.TileNM) / float64(tc.cfg.GridN)
		if got := configFingerprint(tc.cfg, dx); got != tc.wantCfg {
			t.Errorf("%s: configFingerprint = %q, want %q", tc.name, got, tc.wantCfg)
		}
		if got := string(fingerprint(tc.l, tc.cfg)); got != tc.wantFP {
			t.Errorf("%s: fingerprint = %q, want %q", tc.name, got, tc.wantFP)
		}
	}

	// A fallback spelled "none" is the same chain as no fallback, so it
	// keys the same cache entries and journals.
	none := mk(suite[0], 128, engine.Meta("circleopt", "none", engine.Defaults()))
	empty := mk(suite[0], 128, engine.Meta("circleopt", "", engine.Defaults()))
	if a, b := configFingerprint(none, 8), configFingerprint(empty, 8); a != b {
		t.Errorf("fallback none keys %q, empty fallback %q", a, b)
	}
}

// TestUnknownEngineFailsFast: an engine name nothing registered fails
// the run before any tile, worker spawn or dial, whichever transport
// the config selects — not per tile as worker task errors.
func TestUnknownEngineFailsFast(t *testing.T) {
	for _, mode := range []string{"in-process", "proc", "remote"} {
		for _, engines := range []quarantine.EngineMeta{
			{Primary: "no-such-engine", Iters: 8},
			{Primary: "rule", Fallback: "no-such-engine"},
		} {
			cfg := testConfig()
			cfg.Engines = engines
			switch mode {
			case "proc":
				cfg.ProcWorkers = 2
				cfg.WorkerCmd = func() *exec.Cmd {
					t.Errorf("%s: worker spawned for an unresolvable chain", mode)
					return exec.Command("true")
				}
			case "remote":
				cfg.RemoteHosts = []string{"127.0.0.1:1"}
			}
			tiles := 0
			cfg.Events = func(ev Event) {
				if ev.Kind == EventTile {
					tiles++
				}
			}
			res, err := Run(bigLayout(), cfg)
			if err == nil || !strings.Contains(err.Error(), "no-such-engine") || res != nil {
				t.Fatalf("%s %+v: res %v, err %v; want an unknown-engine error", mode, engines, res, err)
			}
			if tiles != 0 {
				t.Fatalf("%s %+v: %d tiles ran before the error", mode, engines, tiles)
			}
		}
	}
}
