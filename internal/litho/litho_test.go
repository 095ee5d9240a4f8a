package litho

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
)

// testSim builds a cheap but physical simulator: 256 nm tile on a 32×32
// grid (8 nm/px) keeps kernel supports tiny.
func testSim(t testing.TB, n int) *Simulator {
	t.Helper()
	cfg := optics.Default()
	cfg.TileNM = 256
	cfg.NumKernels = 6
	s, err := New(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadInputs(t *testing.T) {
	cfg := optics.Default()
	if _, err := New(cfg, 0); err == nil {
		t.Error("expected error for grid size 0")
	}
	// Grid smaller than the kernel support must be rejected.
	if _, err := New(cfg, 8); err == nil {
		t.Error("expected error for grid smaller than kernel support")
	}
	bad := cfg
	bad.NA = -1
	if _, err := New(bad, 64); err == nil {
		t.Error("expected error for invalid optics config")
	}
}

func TestClearAndDarkField(t *testing.T) {
	s := testSim(t, 32)
	clear := grid.NewReal(32, 32)
	clear.Fill(1)
	i := s.Aerial(clear, s.Focus, false, nil)
	for idx, v := range i.Data {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("clear field intensity[%d] = %v, want 1", idx, v)
		}
	}
	dark := grid.NewReal(32, 32)
	i = s.Aerial(dark, s.Focus, false, nil)
	for idx, v := range i.Data {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("dark field intensity[%d] = %v, want 0", idx, v)
		}
	}
}

func TestAerialNonNegativeAndFinite(t *testing.T) {
	s := testSim(t, 32)
	rng := rand.New(rand.NewSource(1))
	m := grid.NewReal(32, 32)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	img := s.Aerial(m, s.Defocus, false, nil)
	for i, v := range img.Data {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("intensity[%d] = %v", i, v)
		}
	}
}

func TestAerialPanicsOnSizeMismatch(t *testing.T) {
	s := testSim(t, 32)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched mask size")
		}
	}()
	s.Aerial(grid.NewReal(16, 16), s.Focus, false, nil)
}

func TestSigmoid(t *testing.T) {
	if v := Sigmoid(0); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %v", v)
	}
	if v := Sigmoid(50); v < 0.999 {
		t.Fatalf("Sigmoid(50) = %v", v)
	}
	if v := Sigmoid(-50); v > 0.001 {
		t.Fatalf("Sigmoid(-50) = %v", v)
	}
	// Symmetry σ(x) + σ(−x) = 1.
	for _, x := range []float64{0.1, 1, 3, 10, 200} {
		if d := Sigmoid(x) + Sigmoid(-x) - 1; math.Abs(d) > 1e-12 {
			t.Fatalf("sigmoid symmetry broken at %v: %v", x, d)
		}
	}
}

func TestResistModels(t *testing.T) {
	i := grid.NewReal(2, 1)
	i.Set(0, 0, Threshold*2)
	i.Set(1, 0, Threshold/2)
	zb := ResistBinary(i, 1.0)
	if zb.At(0, 0) != 1 || zb.At(1, 0) != 0 {
		t.Fatalf("binary resist wrong: %v", zb.Data)
	}
	zs := ResistSigmoid(i, 1.0)
	if zs.At(0, 0) < 0.9 || zs.At(1, 0) > 0.1 {
		t.Fatalf("sigmoid resist wrong: %v", zs.Data)
	}
	// Higher dose can only grow the printed region.
	zhi := ResistBinary(i, 1.3)
	for idx := range zb.Data {
		if zb.Data[idx] == 1 && zhi.Data[idx] == 0 {
			t.Fatal("higher dose shrank printed region")
		}
	}
}

func TestSimulateDoseCornerNesting(t *testing.T) {
	s := testSim(t, 32)
	m := grid.NewReal(32, 32)
	// A 10×10 square feature.
	for y := 11; y < 21; y++ {
		for x := 11; x < 21; x++ {
			m.Set(x, y, 1)
		}
	}
	r := s.Simulate(m)
	if r.ZNom.Sum() == 0 {
		t.Fatal("nominal image printed nothing")
	}
	// Max-dose print must contain the min-dose print (same aerial image).
	for i := range r.ZMax.Data {
		if r.ZMin.Data[i] == 1 && r.ZMax.Data[i] == 0 {
			t.Fatal("min-dose print not contained in max-dose print")
		}
	}
}

// The analytic mask gradient must match central finite differences of the
// loss. This validates the whole adjoint chain: resist sigmoid → aerial
// backward → kernel conjugation. 32 px runs the radix-2 FFT, 48 px
// Bluestein, and 192 px is the daemon's window with its optics and the
// optimizer's kernel truncation.
func TestLossGradMatchesFiniteDifference(t *testing.T) {
	for _, n := range []int{32, 48, 192} {
		s := testSim(t, n)
		weightSets := [][2]float64{{1, 0}, {0, 1}, {1, 1}}
		if n == 192 {
			s = oracleSim(t, n, 8)
			s.KOpt = 5
			if testing.Short() {
				weightSets = weightSets[2:]
			}
		}
		lo, hi := n*3/8, n*5/8
		rng := rand.New(rand.NewSource(42))
		mask := grid.NewReal(n, n)
		target := grid.NewReal(n, n)
		for y := lo; y < hi; y++ {
			for x := lo; x < hi; x++ {
				target.Set(x, y, 1)
			}
		}
		for i := range mask.Data {
			mask.Data[i] = 0.3 + 0.4*rng.Float64()
		}

		for _, weights := range weightSets {
			wL2, wPVB := weights[0], weights[1]
			res := s.LossGrad(mask, target, wL2, wPVB)
			if res.GradM.HasNaN() {
				t.Fatalf("n=%d: gradient contains NaN", n)
			}
			const eps = 1e-5
			for _, px := range [][2]int{{lo + 1, lo + 1}, {n / 2, n / 2}, {5, 5}, {hi, lo}} {
				x, y := px[0], px[1]
				orig := mask.At(x, y)
				mask.Set(x, y, orig+eps)
				lp := s.LossGrad(mask, target, wL2, wPVB).Loss
				mask.Set(x, y, orig-eps)
				lm := s.LossGrad(mask, target, wL2, wPVB).Loss
				mask.Set(x, y, orig)
				numeric := (lp - lm) / (2 * eps)
				analytic := res.GradM.At(x, y)
				scale := math.Max(math.Abs(numeric), math.Abs(analytic))
				if scale < 1e-8 {
					continue
				}
				if math.Abs(numeric-analytic) > 1e-3*scale+1e-8 {
					t.Errorf("n=%d w=(%g,%g) pixel (%d,%d): analytic %g vs numeric %g",
						n, wL2, wPVB, x, y, analytic, numeric)
				}
			}
		}
	}
}

func TestLossGradPerfectMaskHasLowLoss(t *testing.T) {
	s := testSim(t, 32)
	target := grid.NewReal(32, 32)
	for y := 8; y < 24; y++ {
		for x := 8; x < 24; x++ {
			target.Set(x, y, 1)
		}
	}
	// The target itself is a reasonable mask for a large feature; loss
	// should be far below the all-empty mask's loss.
	empty := grid.NewReal(32, 32)
	lTarget := s.LossGrad(target, target, 1, 1).Loss
	lEmpty := s.LossGrad(empty, target, 1, 1).Loss
	if lTarget >= lEmpty {
		t.Fatalf("target-as-mask loss %g not better than empty mask %g", lTarget, lEmpty)
	}
}

func TestKOptTruncation(t *testing.T) {
	s := testSim(t, 32)
	m := grid.NewReal(32, 32)
	for y := 10; y < 22; y++ {
		for x := 10; x < 22; x++ {
			m.Set(x, y, 1)
		}
	}
	full := s.Aerial(m, s.Focus, true, nil)
	s.KOpt = 2
	trunc := s.Aerial(m, s.Focus, true, nil)
	// Truncation must change the image (fewer kernels)…
	if full.SqDiff(trunc) == 0 {
		t.Fatal("KOpt truncation had no effect")
	}
	// …but evaluation (optimizing=false) must ignore KOpt.
	evalImg := s.Aerial(m, s.Focus, false, nil)
	if full.SqDiff(evalImg) != 0 {
		t.Fatal("evaluation path affected by KOpt")
	}
}

// BenchmarkLossGrad times one optimizer loss-and-gradient evaluation at the
// window sizes the system runs (flow 48/192 px, daemon grid 256, paper
// grid 512) with their optics and the loop's truncated kernel set.
func BenchmarkLossGrad(b *testing.B) {
	for _, c := range []struct {
		n  int
		dx float64
	}{{48, 8}, {192, 8}, {256, 8}, {512, 4}} {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			s := oracleSim(b, c.n, c.dx)
			s.KOpt = 5
			mask, target := oracleMasks(c.n)
			s.LossGrad(mask, target, 1, 1) // plans and pools outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = s.LossGrad(mask, target, 1, 1)
			}
		})
	}
}

// benchSink keeps the compiler from discarding a benchmarked result.
var benchSink *DiffResult
