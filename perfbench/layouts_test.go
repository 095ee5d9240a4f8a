package main

import (
	"reflect"
	"testing"

	"cfaopc/internal/layout"
)

func TestLayoutsAreSeededAndValid(t *testing.T) {
	gens := map[string]func(seed int64) (*layout.Layout, error){
		"daemon":   func(s int64) (*layout.Layout, error) { return daemonLayout(s, 0) },
		"paper":    paperLayout,
		"fullchip": func(s int64) (*layout.Layout, error) { return fullchipLayout(s, 1) },
	}
	for name, gen := range gens {
		for _, seed := range []int64{1, 2, 7919} {
			a, err := gen(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			b, _ := gen(seed)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two generations differ", name, seed)
			}
			c, _ := gen(seed + 1)
			if reflect.DeepEqual(a.Rects, c.Rects) {
				t.Errorf("%s: seeds %d and %d give the same layout", name, seed, seed+1)
			}
			if len(a.Rects) != len(c.Rects) || a.Area() != c.Area() {
				t.Errorf("%s: the seed changed the feature set (%d rects, %d nm² vs %d, %d)",
					name, len(a.Rects), a.Area(), len(c.Rects), c.Area())
			}
		}
	}
}

func TestDaemonLayoutOccupiesOneWindow(t *testing.T) {
	l, err := daemonLayout(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix := layout.NewWindowIndex(l, 256)
	occupied := 0
	for cy := 0; cy < 256; cy += 128 {
		for cx := 0; cx < 256; cx += 128 {
			if _, ok := ix.Window(cx-32, cy-32, 192, 192); ok {
				occupied++
			}
		}
	}
	if occupied != 1 {
		t.Errorf("%d of 4 windows occupied, want 1", occupied)
	}
}

func TestParsePGM(t *testing.T) {
	g, err := parsePGM([]byte("P5\n3 2\n255\n\x00\xff\x00\xff\xff\x00"))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 0, 1, 1, 0}
	if g.W != 3 || g.H != 2 || !reflect.DeepEqual(g.Data, want) {
		t.Errorf("got %dx%d %v", g.W, g.H, g.Data)
	}
	if _, err := parsePGM([]byte("P5\n3 2\n255\n\x00")); err == nil {
		t.Error("a truncated PGM must fail")
	}
}
