package litho

import (
	"math"
	"math/rand"
	"testing"

	"cfaopc/internal/fft"
	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
)

// The reference below is the SOCS model as written before band pruning and
// buffer pooling: serial, freshly allocated, full 2-D transforms. The
// production passes must reproduce it bit for bit.

func refAerial(s *Simulator, mask *grid.Real, set *optics.KernelSet, kc int) (*grid.Real, []*grid.Complex) {
	n := s.N
	maskF := grid.NewComplex(n, n)
	for i, v := range mask.Data {
		maskF.Data[i] = complex(v, 0)
	}
	fft.Forward2D(maskF)
	intensity := grid.NewReal(n, n)
	fields := make([]*grid.Complex, kc)
	for ki := range fields {
		k := &set.Kernels[ki]
		dst := grid.NewComplex(n, n)
		for by := -k.Half; by <= k.Half; by++ {
			for bx := -k.Half; bx <= k.Half; bx++ {
				if c := k.At(bx, by); c != 0 {
					idx := (by+n)%n*n + (bx+n)%n
					dst.Data[idx] = c * maskF.Data[idx]
				}
			}
		}
		fft.Inverse2D(dst)
		fields[ki] = dst
		for i, v := range dst.Data {
			re, im := real(v), imag(v)
			intensity.Data[i] += k.Weight * (re*re + im*im)
		}
	}
	return intensity, fields
}

func refBackward(s *Simulator, dLdI *grid.Real, set *optics.KernelSet, fields []*grid.Complex) *grid.Real {
	n := s.N
	accF := grid.NewComplex(n, n)
	for ki, ck := range fields {
		k := &set.Kernels[ki]
		tmp := grid.NewComplex(n, n)
		for i := range tmp.Data {
			tmp.Data[i] = complex(dLdI.Data[i], 0) * ck.Data[i]
		}
		fft.Forward2D(tmp)
		w := complex(k.Weight, 0)
		for by := -k.Half; by <= k.Half; by++ {
			for bx := -k.Half; bx <= k.Half; bx++ {
				if c := k.At(bx, by); c != 0 {
					idx := (by+n)%n*n + (bx+n)%n
					accF.Data[idx] += w * complex(real(c), -imag(c)) * tmp.Data[idx]
				}
			}
		}
	}
	fft.Inverse2D(accF)
	gradM := grid.NewReal(n, n)
	for i, v := range accF.Data {
		gradM.Data[i] = 2 * real(v)
	}
	return gradM
}

func refLossGrad(s *Simulator, mask, target *grid.Real, wL2, wPVB float64) *DiffResult {
	n := s.N
	res := &DiffResult{}
	iNom, fieldsF := refAerial(s, mask, s.Focus, s.kcount(s.Focus, true))
	zNom := ResistSigmoid(iNom, 1.0)
	dLdINom := grid.NewReal(n, n)
	for i := range zNom.Data {
		d := zNom.Data[i] - target.Data[i]
		res.L2 += d * d
		dLdINom.Data[i] = wL2 * 2 * d * ResistSteepness * zNom.Data[i] * (1 - zNom.Data[i])
	}
	grad := refBackward(s, dLdINom, s.Focus, fieldsF)
	if wPVB != 0 {
		iDef, fieldsD := refAerial(s, mask, s.Defocus, s.kcount(s.Defocus, true))
		zMax := ResistSigmoid(iDef, DoseMax)
		zMin := ResistSigmoid(iDef, DoseMin)
		dLdIDef := grid.NewReal(n, n)
		const dMax2 = DoseMax * DoseMax
		const dMin2 = DoseMin * DoseMin
		for i := range zMax.Data {
			dmax := zMax.Data[i] - target.Data[i]
			dmin := zMin.Data[i] - target.Data[i]
			res.PVB += dmax*dmax + dmin*dmin
			dLdIDef.Data[i] = wPVB * 2 * ResistSteepness *
				(dmax*zMax.Data[i]*(1-zMax.Data[i])*dMax2 +
					dmin*zMin.Data[i]*(1-zMin.Data[i])*dMin2)
		}
		grad.Add(refBackward(s, dLdIDef, s.Defocus, fieldsD))
	}
	res.Loss = wL2*res.L2 + wPVB*res.PVB
	res.GradM = grad
	return res
}

func sameReal(t *testing.T, what string, got, want *grid.Real) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// oracleSim builds the simulator a flow window of n px at dx nm/px uses.
func oracleSim(t testing.TB, n int, dx float64) *Simulator {
	t.Helper()
	cfg := optics.Default()
	cfg.TileNM = float64(n) * dx
	s, err := New(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// oracleMasks returns a bar target and a continuous mask around it.
func oracleMasks(n int) (mask, target *grid.Real) {
	rng := rand.New(rand.NewSource(int64(n)))
	mask, target = grid.NewReal(n, n), grid.NewReal(n, n)
	for y := n * 3 / 8; y < n*5/8; y++ {
		for x := n / 4; x < n*3/4; x++ {
			target.Set(x, y, 1)
		}
	}
	for i := range mask.Data {
		mask.Data[i] = 0.6*target.Data[i] + 0.4*rng.Float64()
	}
	return mask, target
}

// Band-pruned, pooled LossGrad and Simulate must be byte-equal to the full
// transform reference at the window sizes the system runs, with the
// optimizer's truncated kernel set and with every kernel, serially and in
// parallel.
func TestPrunedMatchesFullTransformReference(t *testing.T) {
	cases := []struct {
		n  int
		dx float64
	}{{48, 8}, {192, 8}, {256, 8}, {512, 4}}
	for _, c := range cases {
		if testing.Short() && c.n > 48 { // the race run: 48 px covers Bluestein and the parallel path
			continue
		}
		s := oracleSim(t, c.n, c.dx)
		mask, target := oracleMasks(c.n)
		for _, kopt := range []int{5, 0} {
			s.KOpt = kopt
			wantLG := refLossGrad(s, mask, target, 1, 1)
			wantNom, _ := refAerial(s, mask, s.Focus, len(s.Focus.Kernels))
			wantDef, _ := refAerial(s, mask, s.Defocus, len(s.Defocus.Kernels))
			for _, workers := range []int{1, 4} {
				s.Workers = workers
				for rep := 0; rep < 2; rep++ { // the second pass runs on recycled buffers
					got := s.LossGrad(mask, target, 1, 1)
					if got.Loss != wantLG.Loss || got.L2 != wantLG.L2 || got.PVB != wantLG.PVB {
						t.Fatalf("n=%d KOpt=%d workers=%d: loss %v/%v/%v, reference %v/%v/%v", c.n, kopt, workers,
							got.Loss, got.L2, got.PVB, wantLG.Loss, wantLG.L2, wantLG.PVB)
					}
					sameReal(t, "GradM", got.GradM, wantLG.GradM)
				}
				r := s.Simulate(mask)
				sameReal(t, "INom", r.INom, wantNom)
				sameReal(t, "IDef", r.IDef, wantDef)
				sameReal(t, "ZNom", r.ZNom, ResistBinary(wantNom, 1.0))
				sameReal(t, "ZMax", r.ZMax, ResistBinary(wantDef, DoseMax))
				sameReal(t, "ZMin", r.ZMin, ResistBinary(wantDef, DoseMin))
			}
		}
	}
}
