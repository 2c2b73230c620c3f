package xai

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"nfvxai/internal/ml"
)

// Kind classifies an explanation method by the scope of its output.
type Kind int

const (
	// KindLocal methods attribute a single prediction (SHAP, LIME, ...).
	KindLocal Kind = iota
	// KindGlobal methods summarize the whole model (PDP, permutation
	// importance, surrogate trees); they run through the jobs API, not the
	// per-instance explain path.
	KindGlobal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLocal:
		return "local"
	case KindGlobal:
		return "global"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Capabilities are the static properties of a method that the serving
// layer uses to validate a request before paying for the computation.
type Capabilities struct {
	// NeedsBackground: the method requires a non-empty background sample.
	NeedsBackground bool `json:"needs_background"`
	// TreeOnly: the method only applies to additive tree models.
	TreeOnly bool `json:"tree_only"`
	// GradientOnly: the method requires a differentiable model.
	GradientOnly bool `json:"gradient_only"`
	// SupportsBatch: Explain is safe for concurrent fan-out (all the
	// repository's explainers are; external registrations may not be).
	SupportsBatch bool `json:"supports_batch"`
	// Deterministic: equal (input, options) produce bit-identical output.
	Deterministic bool `json:"deterministic"`
	// Additive: the attribution is an additive decomposition
	// (Value ≈ Base + Σ Phi), so additivity-based faithfulness metrics
	// apply. False for rule/delta encodings (anchors, counterfactual).
	Additive bool `json:"additive"`
}

// Options is the typed parameter set shared by every registered method.
// Zero values mean "method default"; each method documents which fields it
// reads in its registration's Defaults.
type Options struct {
	// Samples bounds stochastic evaluation budgets (KernelSHAP coalitions,
	// LIME neighborhood size, anchors Monte Carlo draws).
	Samples int `json:"samples,omitempty"`
	// BackgroundSize truncates the background sample handed to the method.
	BackgroundSize int `json:"background_size,omitempty"`
	// Seed drives all sampling; 0 inherits the caller's (pipeline) seed.
	Seed int64 `json:"seed,omitempty"`
	// TopK bounds ranked output. No Build reads it — it shapes the
	// caller's rendering of the attribution (the serving layer honors it
	// as an alternative spelling of its top-level "topk" field, and the
	// pipeline's explainer cache normalizes it out of its keys).
	TopK int `json:"topk,omitempty"`
	// KernelWidth is the LIME proximity-kernel width.
	KernelWidth float64 `json:"kernel_width,omitempty"`
	// KeepProb is the LIME per-feature keep probability.
	KeepProb float64 `json:"keep_prob,omitempty"`
	// Ridge regularizes surrogate/WLS solves.
	Ridge float64 `json:"ridge,omitempty"`
	// Steps is the integrated-gradients Riemann resolution.
	Steps int `json:"steps,omitempty"`
	// GridSize is the PDP grid resolution.
	GridSize int `json:"grid_size,omitempty"`
	// Repeats is the permutation-importance shuffle count.
	Repeats int `json:"repeats,omitempty"`
	// MaxDepth bounds surrogate-tree complexity.
	MaxDepth int `json:"max_depth,omitempty"`
	// Threshold is the anchors target precision.
	Threshold float64 `json:"threshold,omitempty"`
	// TargetOp / TargetValue define the counterfactual goal predicate
	// ("<=" or ">=" against the model output). TargetValue is a pointer so
	// an explicit 0 target is distinguishable from "use the method
	// default" — the same omitted-vs-zero pattern the jobs API uses for
	// audit strength.
	TargetOp    string   `json:"target_op,omitempty"`
	TargetValue *float64 `json:"target_value,omitempty"`
	// MaxChanges caps counterfactual sparsity.
	MaxChanges int `json:"max_changes,omitempty"`
}

// Key returns a canonical fingerprint of the options, used as (part of)
// explainer-cache keys. Two Options with equal (dereferenced) fields
// share a key.
func (o Options) Key() string {
	tv := "-"
	if o.TargetValue != nil {
		tv = fmt.Sprintf("%g", *o.TargetValue)
	}
	return fmt.Sprintf("s%d|b%d|sd%d|k%d|kw%g|kp%g|r%g|st%d|g%d|rp%d|md%d|th%g|%s%s|mc%d",
		o.Samples, o.BackgroundSize, o.Seed, o.TopK, o.KernelWidth, o.KeepProb,
		o.Ridge, o.Steps, o.GridSize, o.Repeats, o.MaxDepth, o.Threshold,
		o.TargetOp, tv, o.MaxChanges)
}

// Target bundles everything a method needs to build an explainer for one
// frozen model.
type Target struct {
	Model      ml.Predictor
	Background [][]float64
	Names      []string
}

// Method is one registered explanation method: its identity, capability
// flags, default options, and constructors.
type Method struct {
	// Name is the registry key ("treeshap", "lime", ...).
	Name string
	Kind Kind
	Caps Capabilities
	// Defaults documents the option fields the method reads, with their
	// default values (informational; constructors re-default internally).
	Defaults Options
	// Compatible reports whether the method can explain the model.
	// nil means every model is supported.
	Compatible func(model ml.Predictor) bool
	// Build constructs a local explainer for the target. nil for global
	// methods, which run through the jobs subsystem instead.
	Build func(t Target, o Options) (Explainer, error)
}

// ErrUnknownMethod reports a lookup of an unregistered method name.
var ErrUnknownMethod = errors.New("unknown explanation method")

// ErrUnsupportedModel reports a method/model capability mismatch (e.g.
// TreeSHAP on an MLP). The serving layer maps it to HTTP 409.
var ErrUnsupportedModel = errors.New("method does not support this model")

// ErrInvalidOptions reports option values a method cannot accept (e.g. a
// counterfactual target_op that is neither "<=" nor ">="). Build
// implementations wrap it so the serving layer can map the failure to
// HTTP 400 — a client-input error, not a server fault.
var ErrInvalidOptions = errors.New("invalid method options")

// MaxSamples caps the sampling work one explainer may be built for:
// Options.Samples (KernelSHAP coalitions, LIME and anchors perturbations)
// and Options.Steps (integrated-gradients path steps). KernelSHAP sizes
// its coalition storage and weighted-least-squares design to Samples
// rows, so an uncapped value lets one request ask for gigabytes.
const MaxSamples = 1 << 16

var (
	regMu   sync.RWMutex
	methods = map[string]Method{}
)

// Register adds a method to the package-level registry. The shipped
// methods register from their packages' init functions; external packages
// may add their own. Registering an empty or duplicate name panics: both
// are programmer errors that must fail at start-up, not at request time.
func Register(m Method) {
	if m.Name == "" {
		panic("xai: Register with empty method name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := methods[m.Name]; dup {
		panic(fmt.Sprintf("xai: method %q registered twice", m.Name))
	}
	methods[m.Name] = m
}

// LookupMethod returns the named method.
func LookupMethod(name string) (Method, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := methods[name]
	return m, ok
}

// Methods returns every registered method, sorted by name.
func Methods() []Method {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Method, 0, len(methods))
	for _, m := range methods {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MethodNames returns the sorted registered method names.
func MethodNames() []string {
	ms := Methods()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// MethodsFor returns the registered methods applicable to the model:
// global methods always apply, local ones according to Compatible.
func MethodsFor(model ml.Predictor) []Method {
	var out []Method
	for _, m := range Methods() {
		if m.Compatible == nil || m.Compatible(model) {
			out = append(out, m)
		}
	}
	return out
}

// BuildExplainer resolves a method by name, validates it against the
// target model, and constructs the explainer. An unknown name is
// ErrUnknownMethod, listing the registered names. Global methods are
// rejected with ErrUnsupportedModel: they have no per-instance explainer
// and must run through the jobs API. Samples or Steps above MaxSamples
// are ErrInvalidOptions.
func BuildExplainer(name string, t Target, o Options) (Explainer, Method, error) {
	m, ok := LookupMethod(name)
	if !ok {
		return nil, Method{}, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownMethod, name, strings.Join(MethodNames(), ", "))
	}
	if m.Kind != KindLocal || m.Build == nil {
		return nil, m, fmt.Errorf("%w: %q is a global method; submit it as a job", ErrUnsupportedModel, name)
	}
	if m.Compatible != nil && !m.Compatible(t.Model) {
		return nil, m, fmt.Errorf("%w: %q", ErrUnsupportedModel, name)
	}
	if m.Caps.NeedsBackground && len(t.Background) == 0 {
		return nil, m, fmt.Errorf("%w: %q needs a background sample", ErrUnsupportedModel, name)
	}
	if o.Samples > MaxSamples || o.Steps > MaxSamples {
		return nil, m, fmt.Errorf("%w: samples %d and steps %d must not exceed %d", ErrInvalidOptions, o.Samples, o.Steps, MaxSamples)
	}
	if n := o.BackgroundSize; n > 0 && n < len(t.Background) {
		t.Background = t.Background[:n]
	}
	e, err := m.Build(t, o)
	if err != nil {
		return nil, m, err
	}
	return e, m, nil
}

// Canceled adapts a context error for explainers: it returns a non-nil
// error iff ctx is done, wrapped with the method name so batch failures
// identify their source. Hot sampling loops call this between blocks.
func Canceled(ctx context.Context, method string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: %w", method, err)
	}
	return nil
}
