package fft

import (
	"math/cmplx"
	"sync"
	"testing"
)

// Cached plans must be safe to share across goroutines: the radix-2 and
// Bluestein tables are read-only after construction, each Forward call
// operates on caller-owned buffers, and scratch comes from a pool.
func TestConcurrentTransforms(t *testing.T) {
	const n = 96 // Bluestein path (not a power of two)
	ref := randomSignal(n, 99)
	want := append([]complex128(nil), ref...)
	Forward(want)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				x := append([]complex128(nil), ref...)
				Forward(x)
				for i := range x {
					if cmplx.Abs(x[i]-want[i]) > 1e-9 {
						errs <- "concurrent transform diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestConcurrentPlanCreation(t *testing.T) {
	// Hammer the plan cache with many sizes at once.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, size := range []int{17 + g, 33 + g, 64, 100 + g} {
				x := randomSignal(size, int64(size))
				Forward(x)
				Inverse(x)
			}
		}()
	}
	wg.Wait()
}

// The 2-D entry points share pooled column and Bluestein buffers across
// goroutines; every goroutine must still get its own exact result.
func TestConcurrent2DTransforms(t *testing.T) {
	const n = 48
	in := randomGrid(n, n, 5)
	wantF, wantI := in.Clone(), in.Clone()
	Forward2DCols(wantF, 6)
	Inverse2DRows(wantI, 6)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				f, i := in.Clone(), in.Clone()
				Forward2DCols(f, 6)
				Inverse2DRows(i, 6)
				for k := range f.Data {
					if !sameBits(f.Data[k], wantF.Data[k]) || !sameBits(i.Data[k], wantI.Data[k]) {
						errs <- "concurrent 2-D transform diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
