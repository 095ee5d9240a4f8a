package flow

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"cfaopc/internal/quarantine"
	"cfaopc/internal/wcache"
)

// TestFaultMatrix runs the full degradation machinery under one fault
// kind and worker count, both selectable from the environment so CI can
// fan the matrix out across jobs (kind × workers, each under -race):
//
//	FLOW_FAULT_KIND=sleep|panic|nan|badradius|stall|all (default all)
//	FLOW_TILE_WORKERS=N (default runs 1 and 4)
//	FLOW_CACHE=off|mem|disk|all (default off)
//
// Uncached (the default): every occupied tile suffers the fault on
// attempt 0 and recovers on the retry; the run must finish on the
// primary path for all tiles, and two identical runs must produce
// identical shot lists regardless of worker count. With a cache mode
// set, only tiles 0 and 2 are faulted (and must bypass the cache in
// both directions), both runs share one cache, and the rerun must
// serve the clean tiles from it — still byte-identically.
func TestFaultMatrix(t *testing.T) {
	kinds := []string{"sleep", "panic", "nan", "badradius", "stall"}
	if k := os.Getenv("FLOW_FAULT_KIND"); k != "" && k != "all" {
		kinds = []string{k}
	}
	workerCounts := []int{1, 4}
	if w := os.Getenv("FLOW_TILE_WORKERS"); w != "" {
		n, err := strconv.Atoi(w)
		if err != nil {
			t.Fatalf("FLOW_TILE_WORKERS=%q: %v", w, err)
		}
		workerCounts = []int{n}
	}
	cacheModes := []string{"off"}
	switch v := os.Getenv("FLOW_CACHE"); v {
	case "", "off":
	case "all":
		cacheModes = []string{"off", "mem", "disk"}
	case "mem", "disk":
		cacheModes = []string{v}
	default:
		t.Fatalf("FLOW_CACHE = %q", v)
	}
	for _, kind := range kinds {
		for _, workers := range workerCounts {
			for _, mode := range cacheModes {
				t.Run(fmt.Sprintf("%s/workers=%d/cache=%s", kind, workers, mode), func(t *testing.T) {
					runFaultMatrixCase(t, kind, workers, mode)
				})
			}
		}
	}
}

func runFaultMatrixCase(t *testing.T, kind string, workers int, cacheMode string) {
	mkCfg := func() Config {
		cfg := faultConfig()
		cfg.Engines = quarantine.EngineMeta{Primary: "rule", Fallback: "rule"} // the fault paths, not the engine, are under test
		cfg.TileWorkers = workers
		cfg.TileRetries = 1
		var f quarantine.Fault
		switch kind {
		case "sleep":
			// The wall deadline must comfortably fit the healthy retry
			// attempt even under -race on a loaded box.
			f = quarantine.Fault{Sleep: time.Minute}
			cfg.TileTimeout = 2 * time.Second
		case "panic":
			f = quarantine.Fault{Panic: true}
		case "nan":
			f = quarantine.Fault{NaN: true}
		case "badradius":
			f = quarantine.Fault{BadRadius: true}
			cfg.RMinPx = 1
			cfg.RMaxPx = 40
		case "stall":
			// Generous deadline: the healthy retry runs a non-beating
			// rule engine, so its whole attempt must finish within the
			// stall window even under -race.
			f = quarantine.Fault{Stall: true}
			cfg.StallTimeout = time.Second
		default:
			t.Fatalf("unknown fault kind %q", kind)
		}
		cfg.Faults = FaultPlan{0: {f}, 1: {f}, 2: {f}, 3: {f}}
		return cfg
	}

	// Cached variants fault only tiles 0 and 2 — faulted tiles must
	// bypass the cache in both directions, the clean tiles 1 and 3 are
	// stored on the first run, and both runs share one cache so the
	// rerun serves them as hits. Disk mode exercises the gob tier.
	faulted := map[int]bool{0: true, 1: true, 2: true, 3: true}
	var cache *wcache.Cache
	if cacheMode != "off" {
		faulted = map[int]bool{0: true, 2: true}
		wc := wcache.Config{}
		if cacheMode == "disk" {
			wc.Dir = t.TempDir()
		}
		var err error
		if cache, err = wcache.New(wc); err != nil {
			t.Fatal(err)
		}
	}

	run := func() *Result {
		t.Helper()
		cfg := mkCfg()
		if cache != nil {
			cfg.Cache = cache
			cfg.Faults = FaultPlan{0: cfg.Faults[0], 2: cfg.Faults[2]}
		}
		res, err := Run(quadLayout(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Retried != len(faulted) || res.Fallbacks != 0 || res.Empty != 0 {
		t.Fatalf("summary: %+v", res)
	}
	for i, st := range res.TileStats {
		if !faulted[i] {
			if st.Attempts != 1 || st.Path != PathPrimary || st.CacheKey == "" {
				t.Fatalf("clean tile %d stat: %+v", i, st)
			}
			continue
		}
		if st.Attempts != 2 || st.Path != PathPrimary || st.Failure == "" {
			t.Fatalf("tile %d stat: %+v", i, st)
		}
		if st.CacheKey != "" || st.CacheHit {
			t.Fatalf("faulted tile %d touched the cache: %+v", i, st)
		}
		if kind == "stall" && !st.Stalled {
			t.Fatalf("tile %d not marked stalled: %+v", i, st)
		}
	}
	if kind == "stall" && res.Stalled != len(faulted) {
		t.Fatalf("res.Stalled = %d, want %d", res.Stalled, len(faulted))
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}

	// Determinism across reruns at this worker count.
	res2 := run()
	if cache != nil {
		// Tiles 1 and 3 are window-identical twins, so the serial cold
		// run serves tile 3 from tile 1's entry while tiles 0 and 2
		// fault right next to it. Parallel cold runs may compute both
		// twins concurrently before either is stored.
		if res.CacheHits+res.CacheMisses != 2 || res.CacheMisses < 1 {
			t.Fatalf("cold cached run hits=%d misses=%d, want 2 lookups with ≥1 miss", res.CacheHits, res.CacheMisses)
		}
		if workers == 1 && res.CacheHits != 1 {
			t.Fatalf("serial cold run hits=%d, want the twin tile served", res.CacheHits)
		}
		if res2.CacheHits != 2 || res2.CacheMisses != 0 {
			t.Fatalf("warm cached run hits=%d misses=%d, want 2/0", res2.CacheHits, res2.CacheMisses)
		}
	}
	if len(res2.Shots) != len(res.Shots) {
		t.Fatalf("rerun shot count %d != %d", len(res2.Shots), len(res.Shots))
	}
	for i := range res.Shots {
		if res.Shots[i] != res2.Shots[i] {
			t.Fatalf("shot %d differs across reruns: %+v vs %+v", i, res.Shots[i], res2.Shots[i])
		}
	}
}
