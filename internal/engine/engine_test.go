package engine

import (
	"slices"
	"strings"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
)

func TestForKnownNames(t *testing.T) {
	for _, name := range Names() {
		if _, err := For(name, Defaults()); err != nil {
			t.Errorf("For(%q): %v", name, err)
		}
		if !Known(strings.ToUpper(name)) {
			t.Errorf("Known(%q) is case-sensitive", strings.ToUpper(name))
		}
	}
	if _, err := For("no-such-method", Defaults()); err == nil || !strings.Contains(err.Error(), "no-such-method") {
		t.Fatalf("unknown method: err = %v", err)
	}
	if Known("no-such-method") || Known("none") || Known("") {
		t.Fatal("Known accepts a name nothing registered")
	}
}

func TestMetaFromMetaRoundTrip(t *testing.T) {
	m := Meta("CircleOpt", "CircleRule", Defaults())
	if m.Primary != "circleopt" || m.Fallback != "circlerule" {
		t.Fatalf("meta not normalized: %+v", m)
	}
	p, fb, err := FromMeta(m)
	if err != nil || p == nil || fb == nil {
		t.Fatalf("FromMeta: %v (primary %v, fallback %v)", err, p, fb)
	}

	// "none" and "" name the same chain, so they record the same meta —
	// the meta is hashed into cache keys and journal fingerprints.
	for _, none := range []string{"none", "NONE", ""} {
		if got, want := Meta("circleopt", none, Defaults()), Meta("circleopt", "", Defaults()); got != want {
			t.Errorf("Meta(circleopt, %q) = %+v, want %+v", none, got, want)
		}
	}

	m.Fallback = "none"
	if _, fb, err = FromMeta(m); err != nil || fb != nil {
		t.Fatalf("fallback 'none' should yield nil: %v, %v", fb, err)
	}
	m.Fallback = ""
	if _, fb, err = FromMeta(m); err != nil || fb != nil {
		t.Fatalf("empty fallback should yield nil: %v, %v", fb, err)
	}

	m.Primary = "bogus"
	if _, _, err = FromMeta(m); err == nil {
		t.Fatal("bogus primary accepted")
	}
	m.Primary = "circleopt"
	m.Fallback = "bogus"
	if _, _, err = FromMeta(m); err == nil {
		t.Fatal("bogus fallback accepted")
	}
}

func TestRegister(t *testing.T) {
	var got Options
	Register("Test-Variant", func(o Options) Optimizer {
		got = o
		return func(*litho.Simulator, *grid.Real) (*grid.Real, []geom.Circle) { return nil, nil }
	})
	if !slices.Contains(Names(), "test-variant") || !slices.IsSorted(Names()) {
		t.Fatalf("Names() = %v, want sorted and holding the new name", Names())
	}
	if _, err := For("TEST-VARIANT", Options{Iters: 7}); err != nil || got.Iters != 7 {
		t.Fatalf("For: %v, builder saw %+v", err, got)
	}
	for _, name := range []string{"test-variant", "circleopt", "none", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", name)
				}
			}()
			Register(name, func(Options) Optimizer { return nil })
		}()
	}
}
