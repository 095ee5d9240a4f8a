package fft

import (
	"fmt"

	"cfaopc/internal/grid"
)

// Forward2D computes the in-place 2D forward DFT of g (rows first, then
// columns).
func Forward2D(g *grid.Complex) { transform2D(g, true, g.H, g.W) }

// Inverse2D computes the in-place 2D inverse DFT of g, scaled by 1/(W·H).
func Inverse2D(g *grid.Complex) { transform2D(g, false, g.H, g.W) }

// Forward2DCols is Forward2D for a caller that reads only the columns in
// the band x ≤ h or x ≥ W−h. Every row is transformed, but the column pass
// runs only on the band, so columns outside it keep the row-pass output
// (the 1-D transform along x alone), not the 2-D spectrum. Band columns
// are bit-identical to Forward2D's. h ≥ W/2 covers every column.
func Forward2DCols(g *grid.Complex, h int) { transform2D(g, true, g.H, checkBand(h)) }

// Inverse2DRows is Inverse2D for a spectrum that is zero outside the row
// band y ≤ h or y ≥ H−h: the rows outside the band are taken to be zero
// and are never read, so the row pass skips them. The whole grid is
// written, bit-identical to Inverse2D of the same grid with those rows
// zeroed. h ≥ H/2 covers every row.
func Inverse2DRows(g *grid.Complex, h int) { transform2D(g, false, checkBand(h), g.W) }

func checkBand(h int) int {
	if h < 0 {
		panic(fmt.Sprintf("fft: negative band half-width %d", h))
	}
	return h
}

// inBand reports whether index i of an n-long axis lies within h of bin 0
// (cyclically).
func inBand(i, n, h int) bool { return i <= h || i >= n-h }

// transform2D runs the row pass on the rows in band rowH and the column
// pass on the columns in band colH. A skipped row enters the column pass
// as the row transform of zeros, the exact value the full pass computes
// for it; only the inverse ever skips rows.
func transform2D(g *grid.Complex, forward bool, rowH, colH int) {
	rowPlan := cachedPlan(g.W)
	colPlan := cachedPlan(g.H)
	for y := 0; y < g.H; y++ {
		if !inBand(y, g.H, rowH) {
			continue
		}
		row := g.Data[y*g.W : (y+1)*g.W]
		if forward {
			rowPlan.Forward(row)
		} else {
			rowPlan.Inverse(row)
		}
	}
	buf := colPlan.getBuf()
	col := *buf
	for x := 0; x < g.W; x++ {
		if !inBand(x, g.W, colH) {
			continue
		}
		for y := 0; y < g.H; y++ {
			if inBand(y, g.H, rowH) {
				col[y] = g.Data[y*g.W+x]
			} else {
				col[y] = rowPlan.invZero[x]
			}
		}
		if forward {
			colPlan.Forward(col)
		} else {
			colPlan.Inverse(col)
		}
		for y := 0; y < g.H; y++ {
			g.Data[y*g.W+x] = col[y]
		}
	}
	colPlan.putBuf(buf)
}

// Convolve returns the circular convolution of two equal-size complex grids
// computed via the frequency domain. Inputs are not modified.
func Convolve(a, b *grid.Complex) *grid.Complex {
	fa := a.Clone()
	fb := b.Clone()
	Forward2D(fa)
	Forward2D(fb)
	fa.MulPointwise(fb)
	Inverse2D(fa)
	return fa
}
