// Package dataset implements the tabular data layer shared by the ML and
// XAI packages: named feature matrices with a target column, deterministic
// splits, feature scaling, CSV encode/decode, and the controlled synthetic
// injectors (spurious "Clever Hans" features, noise features) used by the
// model-auditing experiments.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Task discriminates the prediction target semantics.
type Task int

const (
	// Regression targets are real-valued.
	Regression Task = iota
	// Classification targets are binary labels in {0, 1}.
	Classification
)

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t {
	case Regression:
		return "regression"
	case Classification:
		return "classification"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// Dataset is a feature matrix with named columns and a target vector.
// Rows of X and entries of Y correspond 1:1.
type Dataset struct {
	Names []string
	X     [][]float64
	Y     []float64
	Task  Task
}

// New returns an empty dataset with the given feature names.
func New(task Task, names ...string) *Dataset {
	return &Dataset{Names: append([]string(nil), names...), Task: task}
}

// Add appends one example. It panics if the row width does not match.
func (d *Dataset) Add(x []float64, y float64) {
	if len(x) != len(d.Names) {
		panic(fmt.Sprintf("dataset: row width %d != %d features", len(x), len(d.Names)))
	}
	d.X = append(d.X, append([]float64(nil), x...))
	d.Y = append(d.Y, y)
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// DropFront removes the oldest n examples in place (all of them when
// n >= Len). The backing arrays are compacted so long-running streaming
// accumulators do not pin evicted rows.
func (d *Dataset) DropFront(n int) {
	if n <= 0 {
		return
	}
	if n >= len(d.X) {
		d.X, d.Y = d.X[:0], d.Y[:0]
		return
	}
	k := copy(d.X, d.X[n:])
	for i := k; i < len(d.X); i++ {
		d.X[i] = nil
	}
	d.X = d.X[:k]
	copy(d.Y, d.Y[n:])
	d.Y = d.Y[:k]
}

// Tail returns a deep copy of the newest n examples (the whole dataset
// when n <= 0 or n >= Len) — the snapshot a streaming retrain job trains
// from while the accumulator keeps appending.
func (d *Dataset) Tail(n int) *Dataset {
	if n <= 0 || n > len(d.X) {
		n = len(d.X)
	}
	out := &Dataset{
		Names: append([]string(nil), d.Names...),
		Task:  d.Task,
		X:     make([][]float64, n),
		Y:     append([]float64(nil), d.Y[len(d.Y)-n:]...),
	}
	for i, row := range d.X[len(d.X)-n:] {
		out.X[i] = append([]float64(nil), row...)
	}
	return out
}

// NumFeatures returns the number of feature columns.
func (d *Dataset) NumFeatures() int { return len(d.Names) }

// FeatureIndex returns the column index of the named feature, or -1.
func (d *Dataset) FeatureIndex(name string) int {
	for i, n := range d.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		Names: append([]string(nil), d.Names...),
		X:     make([][]float64, len(d.X)),
		Y:     append([]float64(nil), d.Y...),
		Task:  d.Task,
	}
	for i, row := range d.X {
		out.X[i] = append([]float64(nil), row...)
	}
	return out
}

// Column returns a copy of feature column j.
func (d *Dataset) Column(j int) []float64 {
	out := make([]float64, len(d.X))
	for i, row := range d.X {
		out[i] = row[j]
	}
	return out
}

// Shuffle permutes examples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Split partitions the dataset into train and test sets with the given
// train fraction, shuffling with rng first. The returned datasets share no
// storage with d.
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic("dataset: trainFrac must be in (0, 1)")
	}
	c := d.Clone()
	c.Shuffle(rng)
	cut := int(float64(c.Len()) * trainFrac)
	if cut == 0 {
		cut = 1
	}
	if cut == c.Len() {
		cut = c.Len() - 1
	}
	train = &Dataset{Names: append([]string(nil), c.Names...), Task: c.Task, X: c.X[:cut], Y: c.Y[:cut]}
	test = &Dataset{Names: append([]string(nil), c.Names...), Task: c.Task, X: c.X[cut:], Y: c.Y[cut:]}
	return train, test
}

// SelectFeatures returns a new dataset restricted to the named features,
// in the given order. Unknown names panic.
func (d *Dataset) SelectFeatures(names ...string) *Dataset {
	idx := make([]int, len(names))
	for i, n := range names {
		j := d.FeatureIndex(n)
		if j < 0 {
			panic("dataset: unknown feature " + n)
		}
		idx[i] = j
	}
	out := &Dataset{Names: append([]string(nil), names...), Task: d.Task, Y: append([]float64(nil), d.Y...)}
	out.X = make([][]float64, len(d.X))
	for i, row := range d.X {
		nr := make([]float64, len(idx))
		for k, j := range idx {
			nr[k] = row[j]
		}
		out.X[i] = nr
	}
	return out
}

// DropFeatures returns a new dataset without the named features.
func (d *Dataset) DropFeatures(names ...string) *Dataset {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	var keep []string
	for _, n := range d.Names {
		if !drop[n] {
			keep = append(keep, n)
		}
	}
	return d.SelectFeatures(keep...)
}

// ClassBalance returns the fraction of positive labels for classification
// datasets.
func (d *Dataset) ClassBalance() float64 {
	if d.Len() == 0 {
		return 0
	}
	pos := 0
	for _, y := range d.Y {
		if y >= 0.5 {
			pos++
		}
	}
	return float64(pos) / float64(d.Len())
}

// InjectSpuriousFeature appends a feature column that leaks the target with
// the given strength on this dataset: value = strength*target' + (1-strength)*noise,
// where target' is the standardized target. Used to create "Clever Hans"
// conditions: inject into train only, so test accuracy collapses while the
// artifact dominates attributions. Returns the new feature's name.
func (d *Dataset) InjectSpuriousFeature(rng *rand.Rand, name string, strength float64) string {
	// Standardize the target so the leak has unit scale.
	var mean, sd float64
	for _, y := range d.Y {
		mean += y
	}
	mean /= float64(len(d.Y))
	for _, y := range d.Y {
		sd += (y - mean) * (y - mean)
	}
	sd /= float64(len(d.Y))
	if sd == 0 {
		sd = 1
	}
	sd = math.Sqrt(sd)
	d.Names = append(d.Names, name)
	for i := range d.X {
		z := (d.Y[i] - mean) / sd
		v := strength*z + (1-strength)*rng.NormFloat64()
		d.X[i] = append(d.X[i], v)
	}
	return name
}

// InjectNoiseFeature appends a pure-noise feature column; a sound
// attribution method must rank it near the bottom.
func (d *Dataset) InjectNoiseFeature(rng *rand.Rand, name string) string {
	d.Names = append(d.Names, name)
	for i := range d.X {
		d.X[i] = append(d.X[i], rng.NormFloat64())
	}
	return name
}
