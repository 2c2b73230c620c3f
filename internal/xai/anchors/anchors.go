// Package anchors implements anchor explanations (Ribeiro et al., AAAI
// 2018) for tabular models: a minimal rule — a conjunction of feature
// predicates like "util_ids > 0.72 AND burst = high" — such that inputs
// satisfying the rule almost always receive the same model verdict as the
// explained instance. Anchors give NFV operators reusable playbook
// conditions rather than per-instance attributions.
package anchors

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nfvxai/internal/ml"
	"nfvxai/internal/xai"
)

// init registers anchors in the xai method registry. The Explainer
// adapter renders the found rule as an attribution: anchored features
// carry the rule's precision as their score, so ranked output surfaces
// the conditions of the playbook rule.
func init() {
	xai.Register(xai.Method{
		Name: "anchors",
		Kind: xai.KindLocal,
		Caps: xai.Capabilities{
			NeedsBackground: true,
			SupportsBatch:   true,
			Deterministic:   true,
		},
		Defaults: xai.Options{Threshold: 0.95, Samples: 300},
		Build: func(t xai.Target, o xai.Options) (xai.Explainer, error) {
			return &Explainer{
				Model:      t.Model,
				Background: t.Background,
				Names:      t.Names,
				Config: Config{
					Threshold: o.Threshold,
					Samples:   o.Samples,
					Seed:      o.Seed,
				},
			}, nil
		},
	})
}

// Explainer adapts the anchor search to the xai.Explainer interface. The
// returned attribution sets Phi[j] to the rule's precision for every
// anchored feature j (0 elsewhere), Base to the rule's coverage, and
// Value to the model output at x — a ranked view of which telemetry
// conditions pin the verdict.
type Explainer struct {
	Model      ml.Predictor
	Background [][]float64
	Names      []string
	Config     Config
}

// Explain implements xai.Explainer.
func (e *Explainer) Explain(ctx context.Context, x []float64) (xai.Attribution, error) {
	a, err := Explain(ctx, e.Model, x, e.Background, e.Config)
	if err != nil {
		return xai.Attribution{}, err
	}
	phi := make([]float64, len(x))
	for _, p := range a.Predicates {
		phi[p.Feature] = a.Precision
	}
	return xai.Attribution{
		Names: e.Names,
		Phi:   phi,
		Base:  a.Coverage,
		Value: e.Model.Predict(x),
	}, nil
}

// Predicate constrains one feature to a half-open quantile interval.
type Predicate struct {
	Feature int
	// Lo and Hi bound the feature value (inclusive lo, exclusive hi);
	// either may be infinite (represented by LoOpen/HiOpen).
	Lo, Hi         float64
	LoOpen, HiOpen bool // true when the corresponding bound is absent
}

// Matches reports whether x satisfies the predicate.
func (p Predicate) Matches(x []float64) bool {
	v := x[p.Feature]
	if !p.LoOpen && v < p.Lo {
		return false
	}
	if !p.HiOpen && v >= p.Hi {
		return false
	}
	return true
}

// Format renders the predicate with a feature name.
func (p Predicate) Format(name string) string {
	switch {
	case p.LoOpen && p.HiOpen:
		return name + " = any"
	case p.LoOpen:
		return fmt.Sprintf("%s < %.4g", name, p.Hi)
	case p.HiOpen:
		return fmt.Sprintf("%s >= %.4g", name, p.Lo)
	default:
		return fmt.Sprintf("%.4g <= %s < %.4g", p.Lo, name, p.Hi)
	}
}

// Anchor is a found rule with its quality estimates.
type Anchor struct {
	Predicates []Predicate
	// Precision is the estimated probability that inputs matching the
	// rule get the same verdict as the explained instance.
	Precision float64
	// Coverage is the fraction of background rows matching the rule.
	Coverage float64
}

// Format renders the rule.
func (a Anchor) Format(names []string) string {
	if len(a.Predicates) == 0 {
		return "TRUE (empty anchor)"
	}
	parts := make([]string, len(a.Predicates))
	for i, p := range a.Predicates {
		name := fmt.Sprintf("f%d", p.Feature)
		if p.Feature < len(names) {
			name = names[p.Feature]
		}
		parts[i] = p.Format(name)
	}
	return strings.Join(parts, " AND ")
}

// Config controls the anchor search.
type Config struct {
	// Threshold is the target precision (default 0.95).
	Threshold float64
	// Bins is the number of quantile bins per feature (default 4).
	Bins int
	// Samples is the Monte Carlo budget per precision estimate
	// (default 300).
	Samples int
	// MaxPredicates bounds rule length (default 4).
	MaxPredicates int
	// Seed drives sampling.
	Seed int64
}

// Explain finds an anchor for the model's verdict at x. The verdict of an
// input z is (model.Predict(z) >= 0.5) for probability models, or
// sign-of-deviation agreement for regression via the supplied verdict
// function in ExplainVerdict; Explain uses the 0.5 threshold.
func Explain(ctx context.Context, model ml.Predictor, x []float64, background [][]float64, cfg Config) (Anchor, error) {
	return ExplainVerdict(ctx, model, x, background, cfg, func(p float64) bool { return p >= 0.5 })
}

// minBackground is the fewest background rows the anchor search samples
// perturbations from; a smaller background_size is ErrInvalidOptions.
const minBackground = 4

// ExplainVerdict finds an anchor under a custom verdict function mapping
// the model output to a class. Cancellation is checked once per candidate
// precision estimate, the unit of Monte Carlo work.
func ExplainVerdict(ctx context.Context, model ml.Predictor, x []float64, background [][]float64, cfg Config, verdict func(float64) bool) (Anchor, error) {
	if len(x) == 0 {
		return Anchor{}, errors.New("anchors: empty input")
	}
	if len(background) < minBackground {
		return Anchor{}, fmt.Errorf("%w: anchors needs at least %d background rows, got %d", xai.ErrInvalidOptions, minBackground, len(background))
	}
	threshold := cfg.Threshold
	if threshold <= 0 || threshold > 1 {
		threshold = 0.95
	}
	bins := cfg.Bins
	if bins < 2 {
		bins = 4
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 300
	}
	maxPred := cfg.MaxPredicates
	if maxPred <= 0 {
		maxPred = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0xA2C4))
	want := verdict(model.Predict(x))

	// Candidate predicates: for each feature, the quantile bin containing
	// x's value.
	candidates := make([]Predicate, 0, len(x))
	for j := range x {
		candidates = append(candidates, binOf(background, j, x[j], bins))
	}

	// Greedy anchor construction: repeatedly add the predicate that most
	// increases estimated precision until the threshold is met.
	var current []Predicate
	used := map[int]bool{}
	best := Anchor{Precision: estimatePrecision(model, x, background, nil, samples, rng, verdict, want)}
	for len(current) < maxPred && best.Precision < threshold {
		bestGain := -1.0
		bestIdx := -1
		var bestPrec float64
		for ci, cand := range candidates {
			if used[ci] {
				continue
			}
			if err := xai.Canceled(ctx, "anchors"); err != nil {
				return Anchor{}, err
			}
			trial := append(append([]Predicate(nil), current...), cand)
			prec := estimatePrecision(model, x, background, trial, samples, rng, verdict, want)
			if gain := prec - best.Precision; gain > bestGain {
				bestGain = gain
				bestIdx = ci
				bestPrec = prec
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		current = append(current, candidates[bestIdx])
		best = Anchor{Predicates: append([]Predicate(nil), current...), Precision: bestPrec}
	}
	best.Coverage = coverage(background, best.Predicates)
	return best, nil
}

// estimatePrecision samples perturbed inputs that keep the anchored
// features at x and draw the rest from the background, and returns the
// fraction with the wanted verdict.
func estimatePrecision(model ml.Predictor, x []float64, background [][]float64, preds []Predicate, samples int, rng *rand.Rand, verdict func(float64) bool, want bool) float64 {
	anchored := map[int]bool{}
	for _, p := range preds {
		anchored[p.Feature] = true
	}
	z := make([]float64, len(x))
	agree := 0
	for s := 0; s < samples; s++ {
		bg := background[rng.Intn(len(background))]
		for j := range z {
			if anchored[j] {
				z[j] = x[j]
			} else {
				z[j] = bg[j]
			}
		}
		if verdict(model.Predict(z)) == want {
			agree++
		}
	}
	return float64(agree) / float64(samples)
}

// coverage is the fraction of background rows satisfying all predicates.
func coverage(background [][]float64, preds []Predicate) float64 {
	if len(preds) == 0 {
		return 1
	}
	hit := 0
	for _, row := range background {
		ok := true
		for _, p := range preds {
			if !p.Matches(row) {
				ok = false
				break
			}
		}
		if ok {
			hit++
		}
	}
	return float64(hit) / float64(len(background))
}

// binOf returns the quantile-bin predicate containing value v of feature j.
func binOf(background [][]float64, j int, v float64, bins int) Predicate {
	col := make([]float64, len(background))
	for i, row := range background {
		col[i] = row[j]
	}
	sort.Float64s(col)
	// Bin edges at quantiles 1/bins .. (bins-1)/bins.
	edges := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		pos := float64(b) / float64(bins) * float64(len(col)-1)
		lo := int(pos)
		hi := lo
		if lo+1 < len(col) {
			hi = lo + 1
		}
		frac := pos - float64(lo)
		e := col[lo]*(1-frac) + col[hi]*frac
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	p := Predicate{Feature: j, LoOpen: true, HiOpen: true}
	for _, e := range edges {
		if v < e {
			p.Hi = e
			p.HiOpen = false
			break
		}
		p.Lo = e
		p.LoOpen = false
	}
	return p
}
