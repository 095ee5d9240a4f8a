package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"cfaopc/internal/layout"
)

// box is a placement region in nm: [X0, X1) × [Y0, Y1).
type box struct{ X0, Y0, X1, Y1 int }

// bar is one feature's size in nm: width across, length along.
type bar struct{ W, L int }

// barField places every bar of bars inside b at a random position and
// orientation, at least spacing nm clear of every other rectangle in l.
// The seed moves and turns features but never changes the feature set,
// so the work and the print difficulty of a layout do not drift with the
// seed. An error means the region is too small for the set, a benchmark
// bug.
func barField(rng *rand.Rand, l *layout.Layout, b box, bars []bar, spacing int) error {
	clear := func(c layout.Rect) bool {
		for _, r := range l.Rects {
			if c.X < r.X+r.W+spacing && r.X < c.X+c.W+spacing &&
				c.Y < r.Y+r.H+spacing && r.Y < c.Y+c.H+spacing {
				return false
			}
		}
		return true
	}
	for i, f := range bars {
		placed := false
		for tries := 0; tries < 2000 && !placed; tries++ {
			w, h := f.L, f.W
			if rng.Intn(2) == 1 {
				w, h = f.W, f.L
			}
			c := layout.Rect{X: b.X0 + rng.Intn(b.X1-b.X0-w), Y: b.Y0 + rng.Intn(b.Y1-b.Y0-h), W: w, H: h}
			if clear(c) {
				l.Rects = append(l.Rects, c)
				placed = true
			}
		}
		if !placed {
			return fmt.Errorf("layout %s: no room for bar %d (%dx%d nm) in %+v", l.Name, i, f.W, f.L, b)
		}
	}
	return nil
}

// bars returns n bars cycling through widths and spreading lengths
// evenly over [minLen, maxLen], longest first so the hardest to place
// go down while the region is still empty.
func bars(n int, widths []int, minLen, maxLen int) []bar {
	out := make([]bar, n)
	for i := range out {
		out[i] = bar{W: widths[i%len(widths)], L: maxLen - (maxLen-minLen)*i/max(1, n-1)}
	}
	return out
}

// daemonMotif is an ICCAD-style cluster of five bars in a 560 nm box,
// 80-120 nm apart so every bar sits in its neighbours' optical proximity.
var daemonMotif = []layout.Rect{
	{X: 0, Y: 0, W: 320, H: 64},
	{X: 400, Y: 0, W: 80, H: 280},
	{X: 0, Y: 144, W: 240, H: 96},
	{X: 160, Y: 320, W: 64, H: 240},
	{X: 304, Y: 400, W: 256, H: 80},
}

const daemonMotifBox = 560

// daemonLayout is a 2048 nm clip whose geometry lies in the top-left
// 768 nm, so under the daemon's default tiling (grid 256, core 128, halo
// 32 at 8 nm/px) exactly one of the four 192-px windows is occupied. The
// seed picks one of the motif's eight rotations and mirror images and
// shifts it by 0-7 whole pixels in x and y. A cluster this small prints
// very differently when its bars are placed at random, or even moved by
// a fraction of a pixel, so the seed varies placement, not proximity.
func daemonLayout(seed int64, job int) (*layout.Layout, error) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(job)))
	l := &layout.Layout{Name: fmt.Sprintf("daemon192-s%d-j%d", seed, job), TileNM: 2048}
	turns, mirror := rng.Intn(4), rng.Intn(2) == 1
	const px = 8 // nm per pixel of the daemon's default grid
	ox, oy := 80+px*rng.Intn(8), 80+px*rng.Intn(8)
	for _, r := range daemonMotif {
		if mirror {
			r.X = daemonMotifBox - r.X - r.W
		}
		for i := 0; i < turns; i++ {
			r = layout.Rect{X: r.Y, Y: daemonMotifBox - r.X - r.W, W: r.H, H: r.W}
		}
		r.X += ox
		r.Y += oy
		l.Rects = append(l.Rects, r)
	}
	return l, l.Validate()
}

// paperLayout is an ICCAD-2013-style 2048 nm clip: ten bars of 60-120 nm
// width and 200-700 nm length away from the clip border, the feature
// scale of the paper's benchmark cases.
func paperLayout(seed int64) (*layout.Layout, error) {
	rng := rand.New(rand.NewSource(seed))
	l := &layout.Layout{Name: fmt.Sprintf("paper512-s%d", seed), TileNM: 2048}
	err := barField(rng, l, box{256, 256, 1792, 1792}, bars(10, []int{60, 80, 100, 120}, 200, 700), 80)
	return l, err
}

// fullchipLayout is a 2048 nm chip at 1 nm/px: a block of one repeated
// 128 nm cell on the left half, whose windows repeat and so hit the
// window cache, beside random bars on the right half, whose windows are
// distinct and so miss it. Jobs of one batch share the cell and differ
// in their bars.
func fullchipLayout(seed int64, job int) (*layout.Layout, error) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(job)))
	l := &layout.Layout{Name: fmt.Sprintf("fullchip-s%d-j%d", seed, job), TileNM: 2048}
	const pitch = 128
	motif := []layout.Rect{{X: 8, Y: 16, W: 96, H: 40}, {X: 16, Y: 72, W: 40, H: 48}}
	for y := 0; y+pitch <= 2048; y += pitch {
		for x := 0; x+pitch <= 1024; x += pitch {
			for _, m := range motif {
				l.Rects = append(l.Rects, layout.Rect{X: x + m.X, Y: y + m.Y, W: m.W, H: m.H})
			}
		}
	}
	err := barField(rng, l, box{1088, 32, 2016, 2016}, bars(fullchipBars, []int{40, 48, 56, 64}, 120, 320), 40)
	return l, err
}

// fullchipBars is the number of random bars per fullchip-rule layout.
const fullchipBars = 36

// writeLayout stores l as dir/<name>.glp and returns the file name.
func writeLayout(dir string, l *layout.Layout) (string, error) {
	if err := l.Validate(); err != nil {
		return "", err
	}
	name := l.Name + ".glp"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return "", err
	}
	if err := l.Write(f); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}

// readLayout parses a .glp file, the way the program receives a layout.
func readLayout(path string) (*layout.Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return layout.Parse(f)
}
