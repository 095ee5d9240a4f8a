package main

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, 10, 10, 2, 7}, 7},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 7}, [3]float64{-0.5, 4, 8.5}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.2, 1.5, 9.9, 4.4, 2.2, 8.1, 7.7}, [3]float64{2.2, 4.4, 8.1}},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v", sp, err)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tailOf must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		p, v       float64
		beyond     int
		wantPrefix string
	}{
		{19, 0, 19, 0, "max of 19"},
		{20, 0.50, 10, 10, "p50 of 20 (10 beyond)"},
		{39, 0.50, 20, 19, "p50 of 39"},
		{40, 0.75, 30, 10, "p75 of 40 (10 beyond)"},
		{99, 0.75, 75, 24, "p75 of 99"},
		{100, 0.90, 90, 10, "p90 of 100 (10 beyond)"},
		{200, 0.95, 190, 10, "p95 of 200"},
		{1000, 0.99, 990, 10, "p99 of 1000 (10 beyond)"},
		{9999, 0.99, 9900, 99, "p99 of 9999"},
		{10000, 0.999, 9990, 10, "p99.9 of 10000 (10 beyond)"},
	} {
		tl := tailOf(seq(c.n))
		if tl.P != c.p || tl.Value != c.v || tl.Beyond != c.beyond || tl.N != c.n {
			t.Errorf("n=%d: got %+v, want p=%v v=%v beyond=%d", c.n, tl, c.p, c.v, c.beyond)
		}
		if !strings.HasPrefix(tl.Label(), c.wantPrefix) {
			t.Errorf("n=%d: label %q, want prefix %q", c.n, tl.Label(), c.wantPrefix)
		}
	}
	if tl := tailOf(nil); tl.N != 0 || !math.IsNaN(tl.Value) {
		t.Errorf("empty tail = %+v", tl)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "tile", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "tile", Start: 2, End: 5},  // overlaps the first: counted once
		{ID: 4, Parent: 1, Name: "band", Start: 8, End: 12}, // clipped at the parent's end
		{ID: 5, Parent: 2, Name: "iter", Start: 1.5, End: 2.5},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 4 - 2, 2: 2 - 1, 3: 3, 4: 4, 5: 1}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["tile"] != 4 || byName["job"] != 4 {
		t.Errorf("self by name = %v", byName)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if d := tr.time(0, "x", func() { ran = true }); !ran || d < 0 {
		t.Fatal("nil tracer must still run and time the call")
	}
	tr2 := newTracer()
	id := tr2.time(0, "a", func() {})
	if id <= 0 || len(tr2.spans) != 1 || tr2.spans[0].Name != "a" {
		t.Fatalf("spans = %+v", tr2.spans)
	}
}

func TestCompareRefusesMismatchedFingerprints(t *testing.T) {
	fp := fingerprint{CPU: "Xeon", NumCPU: 2, GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0", DataFS: "ext2/3/4"}
	base := &resultFile{Fingerprint: fp, Workload: "paper-512", Seed: 1,
		Metrics: map[string]metric{"makespan_s": {Value: 8, Unit: "s"}}}
	head := &resultFile{Fingerprint: fp, Workload: "paper-512", Seed: 2,
		Metrics: map[string]metric{"makespan_s": {Value: 6, Unit: "s"}}}
	head2 := *head
	head2.Metrics = map[string]metric{"makespan_s": {Value: 7, Unit: "s"}}
	out, err := compareResults([]*resultFile{base}, []*resultFile{head, &head2})
	if err != nil || !strings.Contains(out, "0.812x") {
		t.Fatalf("same host: %q, %v", out, err)
	}
	for _, mutate := range []func(*fingerprint){
		func(f *fingerprint) { f.CPU = "EPYC" },
		func(f *fingerprint) { f.GOMAXPROCS = 1 },
		func(f *fingerprint) { f.GoVersion = "go1.23.0" },
		func(f *fingerprint) { f.Race = true },
		func(f *fingerprint) { f.DataFS = "tmpfs" },
	} {
		other := *head
		mutate(&other.Fingerprint)
		_, err := compareResults([]*resultFile{base}, []*resultFile{head, &other})
		var fe *errFingerprint
		if !errors.As(err, &fe) || len(fe.diff) != 1 {
			t.Errorf("fingerprint %+v: err = %v, want one refused field", other.Fingerprint, err)
		}
	}
	other := *head
	other.Workload = "daemon-192"
	if _, err := compareResults([]*resultFile{base}, []*resultFile{&other}); err == nil {
		t.Error("comparing different workloads must be refused")
	}
}
