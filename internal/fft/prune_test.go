package fft

import (
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
)

func randomGrid(w, h int, seed int64) *grid.Complex {
	rng := rand.New(rand.NewSource(seed))
	g := grid.NewComplex(w, h)
	for i := range g.Data {
		g.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return g
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// bandWidths returns the half-widths to test on an n-long axis: every h
// up to past n/2 for small n, and the edges of the range for large n.
func bandWidths(n int) []int {
	if n <= 8 {
		hs := make([]int, 0, n+2)
		for h := 0; h <= n+1; h++ {
			hs = append(hs, h)
		}
		return hs
	}
	return []int{0, 1, 2, 20, 26, n/4 + 1, n/2 - 1, n / 2, n/2 + 1, n}
}

var pruneSizes = [][2]int{
	{1, 1}, {2, 2}, {3, 3}, {5, 5}, {8, 8}, {48, 48}, {64, 64}, {96, 96},
	{192, 192}, {256, 256}, {512, 512}, {8, 5}, {12, 48},
}

// Forward2DCols must match Forward2D bit for bit on every band column.
func TestForward2DColsBitEqual(t *testing.T) {
	for _, sz := range pruneSizes {
		w, h := sz[0], sz[1]
		if testing.Short() && w*h > 256*256 {
			continue
		}
		in := randomGrid(w, h, int64(w*1000+h))
		want := in.Clone()
		Forward2D(want)
		for _, bh := range bandWidths(w) {
			got := in.Clone()
			Forward2DCols(got, bh)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if !inBand(x, w, bh) {
						continue
					}
					if i := y*w + x; !sameBits(got.Data[i], want.Data[i]) {
						t.Fatalf("%dx%d h=%d: bin (%d,%d) = %v, Forward2D %v", w, h, bh, x, y, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// Inverse2DRows must match Inverse2D of the row-band-limited grid bit for
// bit on every bin, whatever the rows outside the band held on entry.
func TestInverse2DRowsBitEqual(t *testing.T) {
	for _, sz := range pruneSizes {
		w, h := sz[0], sz[1]
		if testing.Short() && w*h > 256*256 {
			continue
		}
		in := randomGrid(w, h, int64(w*1000+h+7))
		for _, bh := range bandWidths(h) {
			want := in.Clone()
			for y := 0; y < h; y++ {
				if !inBand(y, h, bh) {
					clear(want.Data[y*w : (y+1)*w])
				}
			}
			got := in.Clone() // out-of-band rows keep garbage: never read
			Inverse2D(want)
			Inverse2DRows(got, bh)
			for i := range want.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("%dx%d h=%d: bin %d = %v, Inverse2D %v", w, h, bh, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// Sparse spectra of exact values (signed zeros, ±1, ½) produce outputs
// with exactly-zero parts, the only place the sign of a zero shows. The
// skipped rows must enter the column pass with the very bits the full
// row pass gives an all-zero row, or those signs drift.
func TestInverse2DRowsSignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5}
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	for trial := 0; trial < 2000; trial++ {
		n := []int{3, 4, 5, 6, 8, 12, 16, 48}[rng.Intn(8)]
		h := rng.Intn(n/2 + 1)
		in := grid.NewComplex(n, n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if inBand(y, n, h) && rng.Intn(3) == 0 {
					in.Data[y*n+x] = complex(pick(), pick())
				}
			}
		}
		want, got := in.Clone(), in.Clone()
		Inverse2D(want)
		Inverse2DRows(got, h)
		for i := range want.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Fatalf("trial %d n=%d h=%d: bin %d = %v, Inverse2D %v", trial, n, h, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestNegativeBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Forward2DCols with h=-1 did not panic")
		}
	}()
	Forward2DCols(grid.NewComplex(4, 4), -1)
}

// Once plans and their pools are warm, a transform allocates nothing. The
// race detector drops pooled items at random, so the check is off there.
func TestTransformsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, n := range []int{64, 192} {
		g := randomGrid(n, n, 1)
		Forward2D(g)
		Inverse2D(g)
		allocs := testing.AllocsPerRun(20, func() {
			Forward2D(g)
			Inverse2D(g)
			Forward2DCols(g, 20)
			Inverse2DRows(g, 20)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocations per 2-D transform set, want 0", n, allocs)
		}
	}
}
