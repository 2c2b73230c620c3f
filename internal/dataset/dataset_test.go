package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample(task Task, n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := New(task, "a", "b", "c")
	for i := 0; i < n; i++ {
		x := []float64{rng.NormFloat64(), rng.Float64() * 10, float64(rng.Intn(5))}
		y := x[0] + 0.5*x[1]
		if task == Classification {
			if y > 2.5 {
				y = 1
			} else {
				y = 0
			}
		}
		d.Add(x, y)
	}
	return d
}

func TestAddAndAccessors(t *testing.T) {
	d := New(Regression, "f1", "f2")
	d.Add([]float64{1, 2}, 3)
	if d.Len() != 1 || d.NumFeatures() != 2 {
		t.Fatalf("Len/NumFeatures wrong")
	}
	if d.FeatureIndex("f2") != 1 || d.FeatureIndex("nope") != -1 {
		t.Fatal("FeatureIndex wrong")
	}
	if got := d.Column(1); got[0] != 2 {
		t.Fatalf("Column = %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on bad width")
			}
		}()
		d.Add([]float64{1}, 0)
	}()
}

func TestTaskString(t *testing.T) {
	if Regression.String() != "regression" || Classification.String() != "classification" {
		t.Fatal("Task.String")
	}
	if !strings.Contains(Task(9).String(), "9") {
		t.Fatal("unknown task string")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := sample(Regression, 10, 1)
	c := d.Clone()
	c.X[0][0] = 999
	c.Y[0] = 999
	if d.X[0][0] == 999 || d.Y[0] == 999 {
		t.Fatal("Clone shares storage")
	}
}

func TestSplitSizesAndDisjoint(t *testing.T) {
	d := sample(Regression, 100, 2)
	train, test := d.Split(rand.New(rand.NewSource(3)), 0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	// Mutating the split must not affect the original.
	train.X[0][0] = 12345
	found := false
	for _, row := range d.X {
		if row[0] == 12345 {
			found = true
		}
	}
	if found {
		t.Fatal("Split shares storage with original")
	}
}

func TestSplitPanics(t *testing.T) {
	d := sample(Regression, 10, 4)
	for _, frac := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for frac %v", frac)
				}
			}()
			d.Split(rand.New(rand.NewSource(1)), frac)
		}()
	}
}

func TestSelectAndDropFeatures(t *testing.T) {
	d := sample(Regression, 5, 7)
	s := d.SelectFeatures("c", "a")
	if s.NumFeatures() != 2 || s.Names[0] != "c" || s.Names[1] != "a" {
		t.Fatalf("SelectFeatures names = %v", s.Names)
	}
	if s.X[2][1] != d.X[2][0] {
		t.Fatal("SelectFeatures reordering wrong")
	}
	dr := d.DropFeatures("b")
	if dr.NumFeatures() != 2 || dr.FeatureIndex("b") != -1 {
		t.Fatalf("DropFeatures = %v", dr.Names)
	}
}

func TestClassBalance(t *testing.T) {
	d := New(Classification, "x")
	d.Add([]float64{0}, 1)
	d.Add([]float64{0}, 0)
	d.Add([]float64{0}, 1)
	d.Add([]float64{0}, 0)
	if got := d.ClassBalance(); got != 0.5 {
		t.Fatalf("ClassBalance = %v", got)
	}
	if (New(Classification, "x")).ClassBalance() != 0 {
		t.Fatal("empty ClassBalance")
	}
}

func TestInjectSpuriousFeatureCorrelation(t *testing.T) {
	d := sample(Regression, 2000, 8)
	rng := rand.New(rand.NewSource(9))
	d.InjectSpuriousFeature(rng, "leak", 0.95)
	j := d.FeatureIndex("leak")
	if j != 3 {
		t.Fatalf("leak index = %d", j)
	}
	// Pearson between the leak column and Y must be very high.
	col := d.Column(j)
	r := pearson(col, d.Y)
	if r < 0.9 {
		t.Fatalf("leak correlation = %v want > 0.9", r)
	}
	// Strength 0 must be uncorrelated noise.
	d2 := sample(Regression, 2000, 8)
	d2.InjectSpuriousFeature(rng, "null", 0)
	if r := pearson(d2.Column(3), d2.Y); math.Abs(r) > 0.1 {
		t.Fatalf("null leak correlation = %v", r)
	}
}

func TestInjectNoiseFeature(t *testing.T) {
	d := sample(Regression, 500, 10)
	d.InjectNoiseFeature(rand.New(rand.NewSource(11)), "noise")
	if d.NumFeatures() != 4 || len(d.X[0]) != 4 {
		t.Fatal("noise column missing")
	}
	if r := pearson(d.Column(3), d.Y); math.Abs(r) > 0.15 {
		t.Fatalf("noise correlates with target: %v", r)
	}
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma, mb = ma/n, mb/n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

func TestStandardScaler(t *testing.T) {
	d := sample(Regression, 300, 12)
	s := FitStandard(d)
	scaled := Apply(d, s)
	for j := 0; j < scaled.NumFeatures(); j++ {
		col := scaled.Column(j)
		var mean float64
		for _, v := range col {
			mean += v
		}
		mean /= float64(len(col))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean %v after standardize", j, mean)
		}
	}
}

func TestStandardScalerConstantColumn(t *testing.T) {
	d := New(Regression, "const")
	for i := 0; i < 5; i++ {
		d.Add([]float64{7}, float64(i))
	}
	s := FitStandard(d)
	got := s.Transform([]float64{7})
	if got[0] != 0 {
		t.Fatalf("constant column transform = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample(Classification, 50, 14)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, Classification)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.NumFeatures() != d.NumFeatures() {
		t.Fatalf("round trip sizes %d/%d", got.Len(), got.NumFeatures())
	}
	for i := range d.X {
		if got.Y[i] != d.Y[i] {
			t.Fatalf("Y[%d] mismatch", i)
		}
		for j := range d.X[i] {
			if got.X[i][j] != d.X[i][j] {
				t.Fatalf("X[%d][%d] mismatch: %v vs %v", i, j, got.X[i][j], d.X[i][j])
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"a,b\n1,2\n",         // last column not "target"
		"target\n1\n",        // no features
		"a,target\nx,2\n",    // bad float
		"a,target\n1\n",      // short row — csv reader catches this
		"a,target\n1,nope\n", // bad target
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), Regression); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPropertyCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		d := New(Regression, "x1", "x2")
		for i := 0; i < n; i++ {
			d.Add([]float64{rng.NormFloat64(), rng.NormFloat64() * 1e6}, rng.NormFloat64())
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, Regression)
		if err != nil || got.Len() != n {
			return false
		}
		for i := range d.X {
			if got.X[i][0] != d.X[i][0] || got.X[i][1] != d.X[i][1] || got.Y[i] != d.Y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySplitPreservesRows(t *testing.T) {
	// Every (x, y) pair in the original appears in train ∪ test.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		d := New(Regression, "v")
		for i := 0; i < n; i++ {
			d.Add([]float64{float64(i)}, float64(i)*2)
		}
		train, test := d.Split(rng, 0.7)
		seen := map[float64]bool{}
		for _, row := range train.X {
			seen[row[0]] = true
		}
		for _, row := range test.X {
			seen[row[0]] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDropFrontAndTail(t *testing.T) {
	d := New(Regression, "x")
	for i := 0; i < 10; i++ {
		d.Add([]float64{float64(i)}, float64(i))
	}
	d.DropFront(3)
	if d.Len() != 7 || d.X[0][0] != 3 || d.Y[0] != 3 {
		t.Fatalf("after DropFront(3): len=%d first=%v", d.Len(), d.X[0])
	}
	d.DropFront(0)
	if d.Len() != 7 {
		t.Fatal("DropFront(0) changed the dataset")
	}
	tail := d.Tail(2)
	if tail.Len() != 2 || tail.X[0][0] != 8 || tail.Y[1] != 9 {
		t.Fatalf("tail %v %v", tail.X, tail.Y)
	}
	// Tail is a deep copy.
	tail.X[0][0] = -1
	if d.X[5][0] == -1 {
		t.Fatal("Tail aliased rows")
	}
	if all := d.Tail(0); all.Len() != 7 {
		t.Fatalf("Tail(0) len %d", all.Len())
	}
	d.DropFront(100)
	if d.Len() != 0 {
		t.Fatal("DropFront past end should empty the dataset")
	}
}

// TestCSVRoundTripQuotedNames locks in proper CSV quoting: feature names
// containing commas, quotes and newlines survive WriteCSV → ReadCSV.
func TestCSVRoundTripQuotedNames(t *testing.T) {
	d := New(Regression, `rate,per_sec`, `q"uoted`, "multi\nline", " leading_space")
	d.Add([]float64{1, 2, 3, 4}, 5)
	d.Add([]float64{-1.5, 0, 2.25e-3, 1e9}, -0.5)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, Regression)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFeatures() != 4 || got.Len() != 2 {
		t.Fatalf("shape (%d,%d)", got.Len(), got.NumFeatures())
	}
	for j, n := range d.Names {
		if got.Names[j] != n {
			t.Fatalf("name %d: %q != %q", j, got.Names[j], n)
		}
	}
	for i := range d.X {
		for j := range d.X[i] {
			if got.X[i][j] != d.X[i][j] {
				t.Fatalf("cell (%d,%d): %v != %v", i, j, got.X[i][j], d.X[i][j])
			}
		}
		if got.Y[i] != d.Y[i] {
			t.Fatalf("target %d: %v != %v", i, got.Y[i], d.Y[i])
		}
	}
	// A non-final feature literally named "target" must also survive —
	// only the final column is the target.
	d2 := New(Regression, "target", "other")
	d2.Add([]float64{1, 2}, 3)
	var buf2 bytes.Buffer
	if err := WriteCSV(&buf2, d2); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadCSV(&buf2, Regression)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Names[0] != "target" || got2.Y[0] != 3 {
		t.Fatalf("round trip %v %v", got2.Names, got2.Y)
	}
}
