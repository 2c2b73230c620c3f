// Package mat provides the small dense linear-algebra kernels used by the
// machine-learning and explanation packages: row-major dense matrices,
// the weighted ridge solve behind linear regression, LIME and KernelSHAP
// (normal equations factored by an in-place Cholesky, with a Householder
// QR least-squares fallback for singular systems), and HybridRow, the
// masked row assembly of KernelSHAP's coalition evaluator. Everything is
// float64 and single-goroutine.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewDense allocates a rows×cols zero matrix. It panics if either dimension
// is non-positive.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (len must be rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Reshape resizes m to rows×cols in place, reusing the backing array
// when it has capacity (growing it otherwise) and returns m. Contents
// are undefined after a reshape — callers must fully overwrite before
// reading. This is the pooled-workspace primitive: explainer hot paths
// keep a Dense in a sync.Pool and Reshape it per call instead of
// allocating with NewDense.
func (m *Dense) Reshape(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n) //lint:allow poolalloc workspace growth; amortized by pooled reuse
	}
	m.data = m.data[:n]
	m.rows, m.cols = rows, cols
	return m
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	//lint:allow poolalloc clone by definition allocates its own backing
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteByte('\n')
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.At(i, j))
		}
	}
	return sb.String()
}

// ---- vector helpers ----

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// VecClone returns a copy of x.
func VecClone(x []float64) []float64 {
	//lint:allow poolalloc clone by definition allocates its own backing
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// ---- factorizations & solvers ----

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular or not positive definite")

// QR holds a Householder QR factorization of an m×n matrix with m >= n.
// The lower trapezoid of qr stores the Householder vectors (including the
// head at the diagonal); the strict upper triangle stores R; rdiag stores
// R's diagonal separately.
type QR struct {
	qr    *Dense
	rdiag []float64
	m, n  int
}

// QRFactor computes the QR factorization of a (m >= n required).
func QRFactor(a *Dense) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic("mat: QRFactor requires rows >= cols")
	}
	qr := a.Clone()
	//lint:allow poolalloc one-time factorization state, owned by the returned QR
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the norm of column k at and below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			rdiag[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply the transformation to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -norm
	}
	return &QR{qr: qr, rdiag: rdiag, m: m, n: n}
}

// Solve solves the least-squares problem min ||A*x - b||₂ using the stored
// factorization. It returns ErrSingular if R has a (near-)zero diagonal.
func (f *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != f.m {
		panic("mat: QR.Solve dimension mismatch")
	}
	y := VecClone(b)
	// Apply the Householder reflections to b, computing Qᵀb.
	for k := 0; k < f.n; k++ {
		if f.rdiag[k] == 0 {
			continue
		}
		var s float64
		for i := k; i < f.m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < f.m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R*x = y[:n]; R's off-diagonal lives in qr's upper
	// triangle, its diagonal in rdiag.
	//lint:allow poolalloc solution escapes to the caller; QR solves back only the rare singular fallback
	x := make([]float64, f.n)
	for i := f.n - 1; i >= 0; i-- {
		d := f.rdiag[i]
		if math.Abs(d) < 1e-12 {
			return nil, ErrSingular
		}
		s := y[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return x, nil
}

// LstSq solves min ||A*x - b||₂ via QR.
func LstSq(a *Dense, b []float64) ([]float64, error) {
	return QRFactor(a).Solve(b)
}

// SolveWeightedRidge solves the weighted ridge regression
// (Aᵀ W A + lambda*I) x = Aᵀ W b where W = diag(w). Used by linear
// regression (with unit weights), LIME and KernelSHAP. Weights must be
// non-negative. It allocates the solution; hot paths should call
// SolveWeightedRidgeInto with a pooled or reused destination.
func SolveWeightedRidge(a *Dense, b, w []float64, lambda float64) ([]float64, error) {
	//lint:allow poolalloc result escapes to the caller; pooled callers use SolveWeightedRidgeInto
	dst := make([]float64, a.cols)
	if err := SolveWeightedRidgeInto(a, b, w, lambda, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// solveWS is the pooled normal-equations workspace: the n×n gram matrix
// (factored in place) and the n-vector right-hand side.
type solveWS struct {
	gram []float64
	rhs  []float64
}

var solvePool = sync.Pool{New: func() any { return new(solveWS) }}

// getSolveWS returns a workspace with capacity for an n-column system.
// Contents are undefined: weightedGram fully overwrites both buffers.
func getSolveWS(n int) *solveWS {
	ws := solvePool.Get().(*solveWS)
	if cap(ws.gram) < n*n {
		ws.gram = make([]float64, n*n)
	}
	ws.gram = ws.gram[:n*n]
	if cap(ws.rhs) < n {
		ws.rhs = make([]float64, n)
	}
	ws.rhs = ws.rhs[:n]
	return ws
}

func putSolveWS(ws *solveWS) { solvePool.Put(ws) }

// SolveWeightedRidgeInto solves the weighted ridge regression directly
// through the normal equations into the caller-provided dst (len
// a.cols): the gram matrix AᵀWA + lambda·I and right-hand side AᵀWb are
// accumulated into pooled workspace and the system is solved by an
// in-place Cholesky factorization, with zero steady-state allocations.
// A (numerically) non-positive-definite system falls back to QR on the
// sqrt(w)-scaled rows with the ridge term dropped (that path allocates;
// it is rare and ErrSingular-driven).
func SolveWeightedRidgeInto(a *Dense, b, w []float64, lambda float64, dst []float64) error {
	if len(w) != a.rows || len(b) != a.rows {
		panic("mat: SolveWeightedRidge dimension mismatch")
	}
	n := a.cols
	if len(dst) != n {
		panic(fmt.Sprintf("mat: SolveWeightedRidgeInto destination length %d, want %d", len(dst), n))
	}
	ws := getSolveWS(n)
	defer putSolveWS(ws)
	weightedGram(a.rows, n, a.data, b, w, lambda, ws.gram, ws.rhs)
	if err := solveSPDInPlace(n, ws.gram, ws.rhs, dst); err == nil {
		return nil
	}
	x, err := weightedQRFallback(a, b, w)
	if err != nil {
		return err
	}
	copy(dst, x)
	return nil
}

// weightedQRFallback is the rare-path least-squares solve on the
// sqrt(w)-scaled system. The ridge term is dropped.
func weightedQRFallback(a *Dense, b, w []float64) ([]float64, error) {
	scaled := a.Clone()
	//lint:allow poolalloc rare ErrSingular fallback, not a steady-state path
	sb := make([]float64, len(b))
	for i := 0; i < a.rows; i++ {
		sw := math.Sqrt(w[i])
		row := scaled.Row(i)
		for j := range row {
			row[j] *= sw
		}
		sb[i] = b[i] * sw
	}
	return LstSq(scaled, sb)
}

// weightedGram overwrites gram (n×n) with AᵀWA + lambda·I and rhs (n)
// with AᵀWb for a (rows×n), targets b and non-negative weights w. Rows
// are summed in order; zero weights and zero a-elements are skipped.
func weightedGram(rows, n int, a, b, w []float64, lambda float64, gram, rhs []float64) {
	clear(gram[:n*n])
	clear(rhs[:n])
	for i := 0; i < rows; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		row := a[i*n : (i+1)*n]
		wb := wi * b[i]
		for p := 0; p < n; p++ {
			ap := row[p]
			if ap == 0 {
				continue
			}
			wap := wi * ap
			rhs[p] += ap * wb
			g := gram[p*n:]
			for q := p; q < n; q++ {
				g[q] += wap * row[q]
			}
		}
	}
	// Mirror the upper triangle into the lower and add the ridge term.
	for p := 0; p < n; p++ {
		gram[p*n+p] += lambda
		for q := p + 1; q < n; q++ {
			gram[q*n+p] = gram[p*n+q]
		}
	}
}

// solveSPDInPlace factors g = L·Lᵀ in place (L overwrites g's lower
// triangle) and solves g·dst = rhs by forward/back substitution through
// dst, leaving rhs intact. It returns ErrSingular when g is not
// (numerically) positive definite. No allocations: this is the
// steady-state ridge-solve path, and the poolalloc analyzer holds it to
// zero.
func solveSPDInPlace(n int, g, rhs, dst []float64) error {
	// In-place Cholesky, lower triangle.
	for i := 0; i < n; i++ {
		gi := g[i*n:]
		for j := 0; j <= i; j++ {
			gj := g[j*n:]
			sum := gi[j]
			for p := 0; p < j; p++ {
				sum -= gi[p] * gj[p]
			}
			if i == j {
				if sum <= 0 || sum != sum { // non-positive or NaN pivot
					return ErrSingular
				}
				gi[i] = math.Sqrt(sum)
			} else {
				gi[j] = sum / gj[j]
			}
		}
	}
	// Forward substitution L·y = rhs (y in dst).
	for i := 0; i < n; i++ {
		s := rhs[i]
		gi := g[i*n:]
		for p := 0; p < i; p++ {
			s -= gi[p] * dst[p]
		}
		dst[i] = s / gi[i]
	}
	// Back substitution Lᵀ·x = y, in place over dst.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for p := i + 1; p < n; p++ {
			s -= g[p*n+i] * dst[p]
		}
		dst[i] = s / g[i*n+i]
	}
	return nil
}

// HybridRow assembles one masked perturbation row: dst = bg, then
// dst[j] = x[j] for every j in kept. This is the inner row-assembly
// step of KernelSHAP's generic coalition evaluator.
func HybridRow(dst, bg, x []float64, kept []int) {
	copy(dst, bg)
	for _, j := range kept {
		dst[j] = x[j]
	}
}

// Kernels identifies the package's one set of dense kernels.
type Kernels struct{}

// Name returns "go".
func (Kernels) Name() string { return "go" }

// Active returns the kernel set. explainbench (explainbench/main.go)
// records Active().Name() as mat_backend in every report it writes, so
// the name stays "go" for its reports to compare across versions.
func Active() Kernels { return Kernels{} }
