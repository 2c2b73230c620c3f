package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("zero matrix has %v at (%d,%d)", m.At(i, j), i, j)
			}
		}
	}
}

func TestNewDensePanics(t *testing.T) {
	cases := []func(){
		func() { NewDense(0, 3) },
		func() { NewDense(3, -1) },
		func() { NewDenseData(2, 2, []float64{1, 2, 3}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSetAtRowCol(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row = %v want 7.5", got)
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if v := []float64{3, 4}; !almostEq(math.Sqrt(Dot(v, v)), 5, 1e-15) {
		t.Fatal("norm through Dot wrong")
	}
}

func TestQRSolveExact(t *testing.T) {
	// Square well-conditioned system: QR should recover x exactly.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		a := NewDense(n, n)
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+3) // diagonal dominance-ish
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := mulVec(a, want)
		got, err := LstSq(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !almostEq(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d: x[%d]=%g want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestQRLeastSquaresNormalEquations(t *testing.T) {
	// Overdetermined: QR solution must satisfy Aᵀ(Ax-b)=0.
	rng := rand.New(rand.NewSource(11))
	a := NewDense(30, 5)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LstSq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := mulVec(a, x)
	for i := range res {
		res[i] -= b[i]
	}
	for j := 0; j < 5; j++ {
		var g float64
		for i := range res {
			g += a.At(i, j) * res[i]
		}
		if math.Abs(g) > 1e-9 {
			t.Fatalf("normal equations violated: grad[%d]=%g", j, g)
		}
	}
}

func TestQRSingular(t *testing.T) {
	// Rank-deficient matrix: duplicate column.
	a := NewDenseData(3, 2, []float64{1, 1, 2, 2, 3, 3})
	if _, err := LstSq(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestPropertyDotSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	if got := m.String(); got != "1 2\n3 4" {
		t.Fatalf("String = %q", got)
	}
}
