package dataset

import "math"

// StandardScaler centers each feature to zero mean and unit variance. It
// is fitted on training data and applied to train and test alike, so no
// test statistics leak into training.
type StandardScaler struct {
	Mean, Std []float64
}

// FitStandard fits a StandardScaler on d. Zero-variance columns get Std 1
// so they map to a constant rather than NaN.
func FitStandard(d *Dataset) *StandardScaler {
	p := d.NumFeatures()
	s := &StandardScaler{Mean: make([]float64, p), Std: make([]float64, p)}
	n := float64(d.Len())
	if n == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	for _, row := range d.X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range d.X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform maps a raw feature vector to scaled space (new slice).
func (s *StandardScaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	s.TransformInto(out, x)
	return out
}

// TransformInto writes the scaled x into dst, which must be at least as
// long as x. It is the one place the scaling expression is written, so
// every caller maps a value to the same bits. Each feature is scaled on
// its own, so a row mixed from two scaled rows equals the scaled mix.
func (s *StandardScaler) TransformInto(dst, x []float64) {
	for j, v := range x {
		dst[j] = (v - s.Mean[j]) / s.Std[j]
	}
}

// Apply returns a copy of d with every row passed through the scaler.
func Apply(d *Dataset, s *StandardScaler) *Dataset {
	out := d.Clone()
	for i, row := range out.X {
		out.X[i] = s.Transform(row)
	}
	return out
}
