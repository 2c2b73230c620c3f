package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func maxAbsDiffSlice(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// mulVec returns a·x, one Dot per row.
func mulVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.rows)
	for i := range out {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// refSolveRidge is the arithmetic of the unweighted ridge solve that
// linear regression ran before it moved onto SolveWeightedRidge with
// unit weights: AᵀA as an i-k-j product of Aᵀ and A that skips zero
// elements of Aᵀ, λ added to the diagonal, Aᵀb by Dot over Aᵀ's rows,
// a Cholesky factor into a separate L, forward and back substitution,
// and LstSq on the unweighted system when the factorization fails.
func refSolveRidge(a *Dense, b []float64, lambda float64) ([]float64, error) {
	rows, n := a.Dims()
	at := make([]float64, n*rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			at[j*rows+i] = a.At(i, j)
		}
	}
	ata := make([]float64, n*n)
	for i := 0; i < n; i++ {
		crow := ata[i*n : (i+1)*n]
		for p, av := range at[i*rows : (i+1)*rows] {
			if av == 0 {
				continue
			}
			for j, bv := range a.Row(p) {
				crow[j] += av * bv
			}
		}
	}
	for i := 0; i < n; i++ {
		ata[i*n+i] += lambda
	}
	atb := make([]float64, n)
	for i := range atb {
		atb[i] = Dot(at[i*rows:(i+1)*rows], b)
	}
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := ata[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return LstSq(a, b)
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := atb[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * y[k]
		}
		y[i] = s / l[i*n+i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x, nil
}

// TestUnitWeightRidgeMatchesUnweighted pins that SolveWeightedRidge with
// unit weights returns the unweighted ridge solve's bits: dense and
// sparse designs carrying ±0 entries, several ridge penalties, and a
// rank-deficient design that takes the QR fallback.
func TestUnitWeightRidgeMatchesUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	negZero := math.Copysign(0, -1)
	entry := func(sparse bool) float64 {
		switch r := rng.Intn(10); {
		case r == 0:
			return negZero
		case r == 1 || (sparse && r < 7):
			return 0
		case sparse && r < 9:
			return float64(rng.Intn(3) - 1) // KernelSHAP's z_j − z_d
		default:
			return rng.NormFloat64()
		}
	}
	type design struct {
		a *Dense
		b []float64
	}
	var designs []design
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		rows := n + rng.Intn(30) // LstSq needs rows >= cols
		sparse := trial%2 == 1
		a := NewDense(rows, n)
		for i := range a.data {
			a.data[i] = entry(sparse)
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = entry(false)
		}
		designs = append(designs, design{a, b})
	}
	// Rank-deficient: a duplicated column.
	dup := NewDense(30, 4)
	for i := 0; i < 30; i++ {
		v := rng.NormFloat64()
		dup.Set(i, 0, v)
		dup.Set(i, 1, v)
		dup.Set(i, 2, rng.NormFloat64())
		dup.Set(i, 3, negZero)
	}
	designs = append(designs, design{dup, randSlice(rng, 30)})

	var solved, singular int
	for di, d := range designs {
		rows, _ := d.a.Dims()
		for _, lambda := range []float64{0, 1e-9, 0.1, 10} {
			want, wantErr := refSolveRidge(d.a, d.b, lambda)
			got, gotErr := SolveWeightedRidge(d.a, d.b, ones(rows), lambda)
			if wantErr != gotErr {
				t.Fatalf("design %d λ=%g: error %v, want %v", di, lambda, gotErr, wantErr)
			}
			if wantErr != nil {
				singular++
				continue
			}
			solved++
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("design %d λ=%g: x[%d] = %v, want %v", di, lambda, j, got[j], want[j])
				}
			}
		}
	}
	if solved == 0 || singular == 0 {
		t.Fatalf("solved %d, singular %d: want both paths covered", solved, singular)
	}
}

// TestHybridRowParity checks HybridRow against the per-element
// definition: kept features from x, the rest from the background row.
func TestHybridRowParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []int{1, 4, 9, 17} {
		bg := randSlice(rng, d)
		x := randSlice(rng, d)
		keep := make([]bool, d)
		var kept []int
		for j := 0; j < d; j++ {
			if rng.Intn(2) == 0 {
				keep[j] = true
				kept = append(kept, j)
			}
		}
		got := randSlice(rng, d) // dirty destination
		HybridRow(got, bg, x, kept)
		for j := range got {
			want := bg[j]
			if keep[j] {
				want = x[j]
			}
			if got[j] != want {
				t.Fatalf("d=%d HybridRow[%d] = %v, want %v", d, j, got[j], want)
			}
		}
	}
}

// TestWeightedGramParity checks the assembled normal equations against
// AᵀWA + λI and AᵀWb computed naively.
func TestWeightedGramParity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rows, n := 40, 9
	lambda := 0.01
	a := randSlice(rng, rows*n)
	b := randSlice(rng, rows)
	w := make([]float64, rows)
	for i := range w {
		w[i] = rng.Float64()
	}
	w[3] = 0 // exercise the zero-weight skip
	a[5] = 0 // and the zero-element skip

	gram := randSlice(rng, n*n) // dirty outputs must be overwritten
	rhs := randSlice(rng, n)
	weightedGram(rows, n, a, b, w, lambda, gram, rhs)

	ref := make([]float64, n*n)
	refRHS := make([]float64, n)
	for i := 0; i < rows; i++ {
		for p := 0; p < n; p++ {
			refRHS[p] += w[i] * a[i*n+p] * b[i]
			for q := 0; q < n; q++ {
				ref[p*n+q] += w[i] * a[i*n+p] * a[i*n+q]
			}
		}
	}
	for p := 0; p < n; p++ {
		ref[p*n+p] += lambda
	}
	if d := maxAbsDiffSlice(gram, ref); d > 1e-9 {
		t.Errorf("gram vs naive reference diff %g", d)
	}
	if d := maxAbsDiffSlice(rhs, refRHS); d > 1e-9 {
		t.Errorf("rhs vs naive reference diff %g", d)
	}
	for p := 0; p < n; p++ {
		for q := 0; q < p; q++ {
			if gram[p*n+q] != gram[q*n+p] {
				t.Fatalf("gram not symmetric at (%d,%d)", p, q)
			}
		}
	}
}

// TestCholeskyRoundTrip factors random SPD matrices with
// solveSPDInPlace and checks that the L left in the lower triangle
// reproduces A = L·Lᵀ and that the solution satisfies A·x = rhs.
func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		// Build SPD A = BᵀB + n*I.
		b := randSlice(rng, n*n)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					a[i*n+j] += b[k*n+i] * b[k*n+j]
				}
			}
			a[i*n+i] += float64(n)
		}
		g := append([]float64(nil), a...)
		rhs := randSlice(rng, n)
		x := make([]float64, n)
		if err := solveSPDInPlace(n, g, rhs, x); err != nil {
			t.Fatalf("Cholesky failed: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				var s float64
				for k := 0; k <= j; k++ {
					s += g[i*n+k] * g[j*n+k]
				}
				if math.Abs(s-a[i*n+j]) > 1e-9 {
					t.Fatalf("L*Lᵀ != A at (%d,%d): %g vs %g", i, j, s, a[i*n+j])
				}
			}
		}
		if d := maxAbsDiffSlice(mulVec(NewDenseData(n, n, a), x), rhs); d > 1e-9 {
			t.Fatalf("residual %g", d)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	g := []float64{1, 2, 2, 1} // eigenvalues 3, -1
	if err := solveSPDInPlace(2, g, []float64{1, 1}, make([]float64, 2)); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular for indefinite matrix", err)
	}
}

func TestSolveSPD(t *testing.T) {
	a := []float64{4, 1, 1, 3}
	rhs := []float64{1, 2}
	x := make([]float64, 2)
	if err := solveSPDInPlace(2, append([]float64(nil), a...), rhs, x); err != nil {
		t.Fatal(err)
	}
	if rhs[0] != 1 || rhs[1] != 2 {
		t.Fatalf("rhs modified: %v", rhs)
	}
	r := mulVec(NewDenseData(2, 2, a), x)
	if !almostEq(r[0], 1, 1e-12) || !almostEq(r[1], 2, 1e-12) {
		t.Fatalf("residual %v", r)
	}
}

// TestSolveWeightedRidgeInto checks the normal-equations fast path
// recovers the generating coefficients of a well-conditioned system.
func TestSolveWeightedRidgeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows, n := 60, 8
	a := NewDenseData(rows, n, randSlice(rng, rows*n))
	xTrue := randSlice(rng, n)
	b := mulVec(a, xTrue)
	w := make([]float64, rows)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	dst := make([]float64, n)
	if err := SolveWeightedRidgeInto(a, b, w, 1e-9, dst); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffSlice(dst, xTrue); d > 1e-6 {
		t.Errorf("solution error %g", d)
	}
	// And the allocating wrapper agrees bit-for-bit.
	got, err := SolveWeightedRidge(a, b, w, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != dst[i] {
			t.Fatalf("wrapper diverges from Into at %d", i)
		}
	}
}

// TestSolveWeightedRidgeSingularFallback drives the rank-deficient path:
// a duplicated column makes AᵀWA singular, and the QR fallback must still
// return a least-squares solution (matching historical semantics).
func TestSolveWeightedRidgeSingularFallback(t *testing.T) {
	rows, n := 20, 3
	rng := rand.New(rand.NewSource(14))
	data := make([]float64, rows*n)
	for i := 0; i < rows; i++ {
		v := rng.NormFloat64()
		data[i*n] = v
		data[i*n+1] = v // duplicate column: singular gram
		data[i*n+2] = rng.NormFloat64()
	}
	a := NewDenseData(rows, n, data)
	b := randSlice(rng, rows)
	dst := make([]float64, n)
	err := SolveWeightedRidgeInto(a, b, ones(rows), 0, dst)
	// QR also rejects exactly-singular systems; the contract is just that
	// the error (if any) is ErrSingular, never a panic or garbage result.
	if err != nil && err != ErrSingular {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestSolveWeightedRidgeIntoZeroAlloc: the steady-state ridge solve
// performs zero heap allocations.
func TestSolveWeightedRidgeIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rows, n := 120, 10
	a := NewDenseData(rows, n, randSlice(rng, rows*n))
	b := randSlice(rng, rows)
	w := make([]float64, rows)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	dst := make([]float64, n)
	// Warm the pool once.
	if err := SolveWeightedRidgeInto(a, b, w, 1e-6, dst); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := SolveWeightedRidgeInto(a, b, w, 1e-6, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("SolveWeightedRidgeInto allocates %.1f objects/op, want 0", avg)
	}
}

func TestSolveRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewDense(40, 4)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64() * 3
	}
	x0, err := SolveWeightedRidge(a, b, ones(40), 0)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := SolveWeightedRidge(a, b, ones(40), 100)
	if err != nil {
		t.Fatal(err)
	}
	if n0, n1 := math.Sqrt(Dot(x0, x0)), math.Sqrt(Dot(x1, x1)); n1 >= n0 {
		t.Fatalf("ridge did not shrink: ||x0||=%g ||x1||=%g", n0, n1)
	}
}

func TestSolveWeightedRidgeZeroWeightIgnoresRow(t *testing.T) {
	// Two inconsistent observations of a constant; weights pick one.
	a := NewDenseData(2, 1, []float64{1, 1})
	b := []float64{10, 20}
	x, err := SolveWeightedRidge(a, b, []float64{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 10, 1e-8) {
		t.Fatalf("weighted solve = %v want 10", x)
	}
	x, err = SolveWeightedRidge(a, b, []float64{1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Weighted mean (10 + 3*20)/4 = 17.5.
	if !almostEq(x[0], 17.5, 1e-8) {
		t.Fatalf("weighted solve = %v want 17.5", x)
	}
}

func BenchmarkSolveWeightedRidgeInto(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rows, n := 1024, 16
	a := NewDenseData(rows, n, randSlice(rng, rows*n))
	bb := randSlice(rng, rows)
	w := make([]float64, rows)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SolveWeightedRidgeInto(a, bb, w, 1e-9, dst); err != nil {
			b.Fatal(err)
		}
	}
}
