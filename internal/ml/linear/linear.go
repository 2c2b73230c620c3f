// Package linear implements linear and logistic models: ordinary/ridge
// least-squares regression (solved exactly via QR / normal equations) and
// L2-regularized logistic regression (fitted with mini-batch Adam). These
// serve both as the paper's interpretable baselines and as the surrogate
// solvers used inside LIME.
package linear

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"nfvxai/internal/dataset"
	"nfvxai/internal/mat"
	"nfvxai/internal/sched"
)

// Regression is a linear least-squares model y = wᵀx + b with optional
// ridge penalty on w (the intercept is never penalized, which is achieved
// by centering).
type Regression struct {
	// Ridge is the L2 penalty λ (0 = OLS).
	Ridge float64

	Weights   []float64
	Intercept float64
}

// Fit trains on d. It returns an error for an empty dataset or a singular
// design that even the ridge fallback cannot solve.
func (m *Regression) Fit(d *dataset.Dataset) error {
	n, p := d.Len(), d.NumFeatures()
	if n == 0 || p == 0 {
		return errors.New("linear: empty dataset")
	}
	// Center features and target so the intercept drops out of the solve
	// and the ridge penalty does not shrink it.
	xm := make([]float64, p)
	for _, row := range d.X {
		for j, v := range row {
			xm[j] += v
		}
	}
	for j := range xm {
		xm[j] /= float64(n)
	}
	var ym float64
	for _, y := range d.Y {
		ym += y
	}
	ym /= float64(n)

	a := mat.NewDense(n, p)
	b := make([]float64, n)
	ones := make([]float64, n)
	for i, row := range d.X {
		ar := a.Row(i)
		for j, v := range row {
			ar[j] = v - xm[j]
		}
		b[i] = d.Y[i] - ym
		ones[i] = 1
	}
	w, err := mat.SolveWeightedRidge(a, b, ones, m.Ridge)
	if err != nil {
		return fmt.Errorf("linear: solve failed: %w", err)
	}
	m.Weights = w
	m.Intercept = ym - mat.Dot(w, xm)
	return nil
}

// Predict implements ml.Predictor.
func (m *Regression) Predict(x []float64) float64 {
	return mat.Dot(m.Weights, x) + m.Intercept
}

// PredictBatch implements ml.BatchPredictor: a mat-vec sweep X·w + b,
// sharded over the shared sched pool for large batches (rows are
// independent dot products, so output stays bit-identical to Predict).
func (m *Regression) PredictBatch(X [][]float64, out []float64) {
	sched.ParallelFor(len(X), 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = mat.Dot(m.Weights, X[i]) + m.Intercept
		}
	})
}

// Gradient returns ∂Predict/∂x = w (constant for a linear model), making
// the model differentiable for gradient-based explainers (intgrad).
func (m *Regression) Gradient(x []float64) []float64 {
	return append([]float64(nil), m.Weights...)
}

// Logistic is a binary logistic-regression model producing P(y=1|x),
// fitted with mini-batch Adam on the L2-regularized cross-entropy.
type Logistic struct {
	// L2 is the weight penalty; LR the Adam step size; Epochs the number of
	// passes; BatchSize the mini-batch size (0 = full batch); Seed the
	// shuffling seed.
	L2        float64
	LR        float64
	Epochs    int
	BatchSize int
	Seed      int64

	Weights   []float64
	Intercept float64
}

// Fit trains on d; labels must be in {0, 1}.
func (m *Logistic) Fit(d *dataset.Dataset) error {
	n, p := d.Len(), d.NumFeatures()
	if n == 0 || p == 0 {
		return errors.New("linear: empty dataset")
	}
	lr := m.LR
	if lr == 0 {
		lr = 0.05
	}
	epochs := m.Epochs
	if epochs == 0 {
		epochs = 200
	}
	batch := m.BatchSize
	if batch <= 0 || batch > n {
		batch = n
	}
	rng := rand.New(rand.NewSource(m.Seed + 1))

	w := make([]float64, p)
	var b float64
	// Adam state.
	mw := make([]float64, p)
	vw := make([]float64, p)
	var mb, vb float64
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	gw := make([]float64, p)
	for e := 0; e < epochs; e++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			for j := range gw {
				gw[j] = 0
			}
			var gb float64
			for _, i := range order[start:end] {
				x := d.X[i]
				z := mat.Dot(w, x) + b
				pHat := sigmoid(z)
				g := pHat - d.Y[i]
				for j, v := range x {
					gw[j] += g * v
				}
				gb += g
			}
			inv := 1 / float64(end-start)
			step++
			c1 := 1 - math.Pow(beta1, float64(step))
			c2 := 1 - math.Pow(beta2, float64(step))
			for j := range w {
				g := gw[j]*inv + m.L2*w[j]
				mw[j] = beta1*mw[j] + (1-beta1)*g
				vw[j] = beta2*vw[j] + (1-beta2)*g*g
				w[j] -= lr * (mw[j] / c1) / (math.Sqrt(vw[j]/c2) + eps)
			}
			g := gb * inv
			mb = beta1*mb + (1-beta1)*g
			vb = beta2*vb + (1-beta2)*g*g
			b -= lr * (mb / c1) / (math.Sqrt(vb/c2) + eps)
		}
	}
	m.Weights = w
	m.Intercept = b
	return nil
}

// Predict implements ml.Predictor, returning P(y=1|x).
func (m *Logistic) Predict(x []float64) float64 {
	return sigmoid(mat.Dot(m.Weights, x) + m.Intercept)
}

// PredictBatch implements ml.BatchPredictor: a mat-vec sweep through the
// link function, sharded like Regression.PredictBatch.
func (m *Logistic) PredictBatch(X [][]float64, out []float64) {
	sched.ParallelFor(len(X), 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = sigmoid(mat.Dot(m.Weights, X[i]) + m.Intercept)
		}
	})
}

// Gradient returns ∂P(y=1|x)/∂x = p(1−p)·w, making the model
// differentiable for gradient-based explainers (intgrad).
func (m *Logistic) Gradient(x []float64) []float64 {
	p := m.Predict(x)
	out := make([]float64, len(m.Weights))
	for j, w := range m.Weights {
		out[j] = p * (1 - p) * w
	}
	return out
}

func sigmoid(z float64) float64 {
	// Numerically stable in both tails.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
