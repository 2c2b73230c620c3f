package forest

import (
	"fmt"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml/tree"
	"nfvxai/internal/wire"
)

// forestCodecVersion is bumped whenever either ensemble layout changes.
const forestCodecVersion = 1

// encodeTrees appends the ensemble's trees as length-prefixed tree blobs.
func encodeTrees(w *wire.Writer, trees []*tree.Tree) error {
	w.Int(len(trees))
	for i, t := range trees {
		blob, err := t.MarshalBinary()
		if err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
		w.BytesField(blob)
	}
	return nil
}

// decodeTrees reads the tree blobs written by encodeTrees.
func decodeTrees(r *wire.Reader) ([]*tree.Tree, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Each tree blob carries at least an 8-byte length prefix; bound the
	// allocation by the bytes actually present.
	if n < 0 || n > wire.MaxLen || r.Remaining() < n*8 {
		return nil, wire.ErrTruncated
	}
	trees := make([]*tree.Tree, n)
	for i := range trees {
		blob := r.BytesField()
		if err := r.Err(); err != nil {
			return nil, err
		}
		t := &tree.Tree{}
		if err := t.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("tree %d: %w", i, err)
		}
		trees[i] = t
	}
	return trees, nil
}

// MarshalBinary implements encoding.BinaryMarshaler: hyperparameters plus
// every fitted tree, floats bit-exact.
func (f *RandomForest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U16(forestCodecVersion)
	w.Int(f.NumTrees)
	w.Int(f.MaxDepth)
	w.Int(f.MinLeaf)
	w.Int(f.MaxFeatures)
	w.U8(uint8(f.Task))
	w.I64(f.Seed)
	if err := encodeTrees(&w, f.Trees); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing any
// previous state. Each member tree rebuilds its flattened batch-routing
// layout as it decodes.
func (f *RandomForest) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U16(); r.Err() == nil && v != forestCodecVersion {
		return fmt.Errorf("forest: codec version %d, want %d", v, forestCodecVersion)
	}
	nf := RandomForest{
		NumTrees:    r.Int(),
		MaxDepth:    r.Int(),
		MinLeaf:     r.Int(),
		MaxFeatures: r.Int(),
		Task:        dataset.Task(r.U8()),
		Seed:        r.I64(),
	}
	trees, err := decodeTrees(r)
	if err != nil {
		return fmt.Errorf("forest: decode: %w", err)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("forest: decode: %w", err)
	}
	nf.Trees = trees
	*f = nf
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for the boosted
// ensemble: hyperparameters, base score and every round's tree.
func (g *GradientBoosting) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U16(forestCodecVersion)
	w.Int(g.NumRounds)
	w.F64(g.LearningRate)
	w.Int(g.MaxDepth)
	w.Int(g.MinLeaf)
	w.F64(g.Subsample)
	w.U8(uint8(g.Task))
	w.I64(g.Seed)
	w.F64(g.Base)
	if err := encodeTrees(&w, g.Trees); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing any
// previous state.
func (g *GradientBoosting) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U16(); r.Err() == nil && v != forestCodecVersion {
		return fmt.Errorf("forest: codec version %d, want %d", v, forestCodecVersion)
	}
	ng := GradientBoosting{
		NumRounds:    r.Int(),
		LearningRate: r.F64(),
		MaxDepth:     r.Int(),
		MinLeaf:      r.Int(),
		Subsample:    r.F64(),
		Task:         dataset.Task(r.U8()),
		Seed:         r.I64(),
		Base:         r.F64(),
	}
	trees, err := decodeTrees(r)
	if err != nil {
		return fmt.Errorf("forest: decode: %w", err)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("forest: decode: %w", err)
	}
	ng.Trees = trees
	*g = ng
	return nil
}
