package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the host a result was measured on. Timings are
// compared only between results with equal fingerprints: the committed
// BENCH_flow.json figures did not reproduce on the same CPU model, so
// absolute numbers from another host mean nothing here.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Race       bool   `json:"race"`
	DataFS     string `json:"data_fs"`
}

func hostFingerprint(dataDir string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Race:       raceEnabled,
		DataFS:     fsType(dataDir),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// mismatch lists the fields on which two fingerprints differ.
func (f fingerprint) mismatch(o fingerprint) []string {
	var diff []string
	add := func(name string, a, b any) {
		if a != b {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	add("cpu", f.CPU, o.CPU)
	add("nproc", f.NumCPU, o.NumCPU)
	add("gomaxprocs", f.GOMAXPROCS, o.GOMAXPROCS)
	add("goos", f.GOOS, o.GOOS)
	add("goarch", f.GOARCH, o.GOARCH)
	add("go_version", f.GoVersion, o.GoVersion)
	add("race", f.Race, o.Race)
	add("data_fs", f.DataFS, o.DataFS)
	return diff
}

// resultFile is what one run stores beside its printed result line.
type resultFile struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Metrics     map[string]metric `json:"metrics"`
	Notes       map[string]string `json:"notes,omitempty"` // sample counts and percentile labels
	Checks      []string          `json:"failed_checks,omitempty"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
}

// readResults reads every result file the glob pattern matches.
func readResults(pattern string) ([]*resultFile, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result files", pattern)
	}
	var out []*resultFile
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := &resultFile{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// errFingerprint marks a comparison refused because the hosts differ.
type errFingerprint struct{ diff []string }

func (e *errFingerprint) Error() string {
	return "refusing to compare results from different hosts: " + strings.Join(e.diff, "; ")
}

// compareResults renders, for every metric all results carry, each
// side's median and spread (interquartile distance over the median, as
// the acceptance rule takes it) and the head/base ratio of the medians.
// It refuses results whose fingerprints, workloads or trace modes differ.
func compareResults(base, head []*resultFile) (string, error) {
	ref := base[0]
	all := append(append([]*resultFile(nil), base...), head...)
	for _, r := range all {
		if d := ref.Fingerprint.mismatch(r.Fingerprint); len(d) > 0 {
			return "", &errFingerprint{diff: d}
		}
		if r.Workload != ref.Workload || r.Trace != ref.Trace {
			return "", fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)",
				ref.Workload, ref.Trace, r.Workload, r.Trace)
		}
	}
	var names []string
	for name := range ref.Metrics {
		inAll := true
		for _, r := range all {
			if _, ok := r.Metrics[name]; !ok {
				inAll = false
			}
		}
		if inAll {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	side := func(rs []*resultFile, name string) (float64, string) {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.Metrics[name].Value
		}
		sp := "n/a"
		if v, err := spread(xs); err == nil {
			sp = fmt.Sprintf("%.3f", v)
		}
		return median(xs), sp
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s trace %v: %d base vs %d head runs on %s (median, spread)\n", ref.Workload, ref.Trace, len(base), len(head), ref.Fingerprint.CPU)
	for _, name := range names {
		bm, bs := side(base, name)
		hm, hs := side(head, name)
		ratio := "n/a"
		if bm != 0 {
			ratio = fmt.Sprintf("%.3fx", hm/bm)
		}
		fmt.Fprintf(&b, "  %-28s %14.4f %-6s -> %14.4f %-6s %-8s %s\n", name, bm, bs, hm, hs, ref.Metrics[name].Unit, ratio)
	}
	return b.String(), nil
}
