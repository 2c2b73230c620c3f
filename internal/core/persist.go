// Pipeline persistence: a trained pipeline serializes to one versioned
// binary artifact — model (including the standardizing wrapper's scaler),
// frozen train/test splits, explainer background, seeds and explainer
// metadata — and loads back into a pipeline whose Predict and
// default-method Explain are bit-identical to the one that was saved.
// This is what lets explaind warm-start from the registry store instead
// of retraining every model on every boot.
package core

import (
	"errors"
	"fmt"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/wire"
)

// pipelineMagic guards against decoding arbitrary bytes as a pipeline.
const pipelineMagic = "NFVP"

// pipelineCodecVersion is bumped whenever the artifact layout changes.
const pipelineCodecVersion = 1

// ErrPipelineVersion reports a pipeline artifact written by an
// incompatible codec version.
var ErrPipelineVersion = errors.New("core: unsupported pipeline artifact version")

// ErrCorruptPipeline reports bytes that are not a pipeline artifact, or
// one whose internal structure fails validation. Truncation surfaces as
// wire.ErrTruncated (wrapped), unknown embedded model kinds as
// ml.ErrUnknownModelKind.
var ErrCorruptPipeline = errors.New("core: corrupt pipeline artifact")

// scaler kind tags for the standardizing wrapper.
const (
	scalerNone     = 0
	scalerStandard = 1
)

// Save serializes the pipeline to a self-contained versioned artifact.
// Everything that shapes predictions or explanations is captured: the
// model parameters (bit-exact), the fitted scaler of scale-sensitive
// kinds, both dataset splits, the SHAP background sample, the seed and
// sample budget, and the default explanation method as trained-explainer
// metadata (Load verifies it still resolves identically).
func (p *Pipeline) Save() ([]byte, error) {
	var w wire.Writer
	w.String(pipelineMagic)
	w.U16(pipelineCodecVersion)
	w.String(p.Kind.String())
	w.I64(p.Seed)
	w.Int(p.ShapSamples)
	w.String(DefaultMethod(p.Model))
	if p.Train == nil || p.Test == nil {
		return nil, fmt.Errorf("core: save pipeline: missing train/test split")
	}
	p.Train.AppendWire(&w)
	p.Test.AppendWire(&w)
	w.F64Mat(p.Background)

	// Model section: the standardizing wrapper is flattened into an
	// explicit (scaler, inner-model) pair.
	inner := p.Model
	if sm, ok := p.Model.(*scaledModel); ok {
		w.U8(scalerStandard)
		w.F64s(sm.scaler.Mean)
		w.F64s(sm.scaler.Std)
		inner = sm.inner
	} else {
		w.U8(scalerNone)
	}
	blob, err := ml.EncodeModel(inner)
	if err != nil {
		return nil, fmt.Errorf("core: save pipeline: %w", err)
	}
	w.BytesField(blob)
	return w.Bytes(), nil
}

// LoadPipeline reconstructs a pipeline from a Save artifact. The loaded
// pipeline's Predict/PredictBatch are bit-identical to the saved one and
// its default-method explanations agree to the last bit (same model
// parameters, background, seed and sample budget). The explainer and
// importance caches start cold and rebuild on first use.
func LoadPipeline(data []byte) (*Pipeline, error) {
	r := wire.NewReader(data)
	magic := r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptPipeline, err)
	}
	if magic != pipelineMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptPipeline, magic)
	}
	if v := r.U16(); r.Err() == nil && v != pipelineCodecVersion {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrPipelineVersion, v, pipelineCodecVersion)
	}
	kindName := r.String()
	seed := r.I64()
	shapSamples := r.Int()
	savedMethod := r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptPipeline, err)
	}
	kind, err := modelKindFromString(kindName)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptPipeline, err)
	}
	train, err := dataset.ReadWire(r)
	if err != nil {
		return nil, fmt.Errorf("%w: train split: %w", ErrCorruptPipeline, err)
	}
	test, err := dataset.ReadWire(r)
	if err != nil {
		return nil, fmt.Errorf("%w: test split: %w", ErrCorruptPipeline, err)
	}
	background := r.F64Mat()
	scalerKind := r.U8()
	var mean, std []float64
	switch scalerKind {
	case scalerNone:
	case scalerStandard:
		mean = r.F64s()
		std = r.F64s()
	default:
		return nil, fmt.Errorf("%w: unknown scaler kind %d", ErrCorruptPipeline, scalerKind)
	}
	blob := r.BytesField()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptPipeline, err)
	}
	inner, err := ml.DecodeModel(blob)
	if err != nil {
		// Keep ml's typed errors (ErrUnknownModelKind, wire.ErrTruncated)
		// reachable through errors.Is for the store's corruption tests.
		return nil, fmt.Errorf("%w: model: %w", ErrCorruptPipeline, err)
	}
	// The model must consume exactly the embedded schema's width: a
	// crafted artifact pairing a wide model with a narrow dataset would
	// otherwise pass decode and panic on the first predict.
	if w, ok := ml.InputWidth(inner); ok && w != train.NumFeatures() {
		return nil, fmt.Errorf("%w: model expects %d features, schema has %d",
			ErrCorruptPipeline, w, train.NumFeatures())
	}
	model := inner
	if scalerKind == scalerStandard {
		if len(mean) != len(std) || len(mean) != train.NumFeatures() {
			return nil, fmt.Errorf("%w: scaler width %d/%d != %d features",
				ErrCorruptPipeline, len(mean), len(std), train.NumFeatures())
		}
		model = &scaledModel{inner: inner, scaler: &dataset.StandardScaler{Mean: mean, Std: std}}
	}
	// Trained-explainer metadata check: the default method is derived from
	// the model type, so a mismatch means the artifact's model section does
	// not belong to its header.
	if got := DefaultMethod(model); savedMethod != "" && got != savedMethod {
		return nil, fmt.Errorf("%w: default method %q, artifact recorded %q", ErrCorruptPipeline, got, savedMethod)
	}
	return &Pipeline{
		Kind:        kind,
		Model:       model,
		Train:       train,
		Test:        test,
		Background:  background,
		ShapSamples: shapSamples,
		Seed:        seed,
	}, nil
}

// modelKindFromString resolves a ModelKind from its String form.
func modelKindFromString(name string) (ModelKind, error) {
	for _, k := range ZooKinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown model kind %q", name)
}
