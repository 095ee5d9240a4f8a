// Package fft implements one- and two-dimensional discrete Fourier
// transforms over complex128 slices: an iterative radix-2 Cooley–Tukey
// kernel for power-of-two lengths and Bluestein's chirp-z algorithm for
// every other length. It exists so the lithography simulator can evaluate
// Hopkins convolutions as frequency-domain products without external
// dependencies.
//
// Transforms use the engineering convention: Forward applies
// X[k] = Σ x[n]·exp(-2πi·kn/N) with no scaling, Inverse applies the
// conjugate kernel scaled by 1/N, so Inverse(Forward(x)) == x.
//
// Plans are immutable after construction apart from a pool of scratch
// buffers, so one plan serves any number of goroutines and a transform
// allocates nothing once the pool is warm. The package-level helpers look
// plans up in a lock-free cache.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan caches the twiddle factors, bit-reversal permutation and scratch
// buffers for transforms of a fixed length. A Plan is safe for concurrent
// use: its tables are read-only after NewPlan, every transform works on
// caller-owned data, and scratch comes from a per-plan pool. Typical
// callers never touch Plan directly and use the package-level helpers.
type Plan struct {
	n        int
	pow2     bool
	twiddles []complex128 // forward twiddles for radix-2, length n/2
	swaps    []int32      // radix-2 bit-reversal as (i, j) pairs with i < j
	// Bluestein state (nil for power-of-two sizes).
	bluW    []complex128 // chirp exp(-iπ k²/n), length n
	bluFB   []complex128 // precomputed FFT of the chirp filter, length bluPlan.n
	bluPlan *Plan        // radix-2 plan of the convolution length, a power of two ≥ 2n-1
	// invZero is Inverse applied to n zeros: the exact bits (signed
	// zeros) a skipped all-zero row would have held in Inverse2DRows.
	invZero []complex128
	bufs    sync.Pool // *[]complex128 of length n
}

// NewPlan builds a transform plan for length n.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{n: n, pow2: n&(n-1) == 0}
	if p.pow2 {
		p.initRadix2()
	} else {
		p.initBluestein()
	}
	p.invZero = make([]complex128, n)
	p.Inverse(p.invZero)
	return p
}

func (p *Plan) initRadix2() {
	n := p.n
	p.twiddles = make([]complex128, n/2)
	for k := range p.twiddles {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twiddles[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	if n == 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
}

// initBluestein sets up the chirp-z state: x[k]·w[k] convolved with
// conj(w) gives the DFT.
func (p *Plan) initBluestein() {
	n := p.n
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.bluPlan = NewPlan(m)
	p.bluW = make([]complex128, n)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		// Use k² mod 2n to avoid float blowup for large k.
		ang := -math.Pi * float64((k*k)%(2*n)) / float64(n)
		w := complex(math.Cos(ang), math.Sin(ang))
		p.bluW[k] = w
		cw := complex(real(w), -imag(w))
		b[k] = cw
		if k > 0 {
			b[m-k] = cw
		}
	}
	p.bluPlan.forward(b)
	p.bluFB = b
}

// Len returns the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// getBuf returns a length-n scratch slice from the plan's pool. Its
// contents are stale.
func (p *Plan) getBuf() *[]complex128 {
	if b, _ := p.bufs.Get().(*[]complex128); b != nil {
		return b
	}
	b := make([]complex128, p.n)
	return &b
}

// putBuf returns a scratch slice obtained from getBuf.
func (p *Plan) putBuf(b *[]complex128) { p.bufs.Put(b) }

// Forward computes the in-place forward DFT of x, which must have length
// Len().
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length %d does not match plan %d", len(x), p.n))
	}
	p.forward(x)
}

// Inverse computes the in-place inverse DFT of x (scaled by 1/N).
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length %d does not match plan %d", len(x), p.n))
	}
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
	p.forward(x)
	inv := 1 / float64(p.n)
	for i, v := range x {
		x[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

func (p *Plan) forward(x []complex128) {
	if p.pow2 {
		p.radix2(x)
		return
	}
	p.bluestein(x)
}

// radix2 is an iterative decimation-in-time Cooley–Tukey transform.
func (p *Plan) radix2(x []complex128) {
	n := p.n
	if n == 1 {
		return
	}
	for s := 0; s < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		x[i], x[j] = x[j], x[i]
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				t := x[k+half] * p.twiddles[tw]
				x[k+half] = x[k] - t
				x[k] += t
				tw += step
			}
		}
	}
}

// bluestein evaluates an arbitrary-length DFT as a chirp-z convolution.
func (p *Plan) bluestein(x []complex128) {
	n := p.n
	buf := p.bluPlan.getBuf()
	a := *buf
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.bluW[k]
	}
	clear(a[n:])
	p.bluPlan.forward(a)
	for i := range a {
		a[i] *= p.bluFB[i]
	}
	p.bluPlan.Inverse(a)
	for k := 0; k < n; k++ {
		x[k] = a[k] * p.bluW[k]
	}
	p.bluPlan.putBuf(buf)
}

// planCache maps a length to its shared *Plan. Lookups take no lock; two
// goroutines that miss at once may both build a plan, and the first one
// stored wins.
var planCache sync.Map

func cachedPlan(n int) *Plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	p, _ := planCache.LoadOrStore(n, NewPlan(n))
	return p.(*Plan)
}

// Forward computes the in-place forward DFT of x using a cached plan.
func Forward(x []complex128) { cachedPlan(len(x)).Forward(x) }

// Inverse computes the in-place inverse DFT of x using a cached plan.
func Inverse(x []complex128) { cachedPlan(len(x)).Inverse(x) }
