package shap

import (
	"context"
	"errors"
	"math"
	"time"

	"nfvxai/internal/xai"
)

// The progressive (anytime) KernelSHAP estimator: coalitions are drawn in
// blocks from one continuing seeded stream, each block gets its own
// constrained WLS solve, and the running attribution is the mean of the
// per-block solutions. Because every block solution satisfies the
// efficiency constraint Σ phi = f(x) − base exactly, so does the mean —
// a deadline-truncated partial result is still a valid (just noisier)
// additive attribution. The spread of the per-block solutions yields a
// per-feature 95% confidence half-width, which drives early convergence
// and is reported to callers through xai.Diag.

const (
	// defaultBlockSamples balances deadline reactivity (smaller blocks stop
	// closer to the deadline) against per-block WLS overhead.
	defaultBlockSamples = 128
	// defaultConvergeTol stops sampling once every CI half-width is below
	// 2% of the attribution scale — visually indistinguishable rankings.
	defaultConvergeTol = 0.02
	// minConvergeBlocks is the fewest blocks a CI may be trusted from.
	minConvergeBlocks = 3
)

// explainProgressive samples coalitions in blocks until the per-feature
// confidence intervals converge, the sample budget is spent, or the
// context deadline approaches — whichever comes first. A deadline that
// expires after at least one completed block yields the partial estimate
// (tagged via Diag) instead of an error; with zero completed blocks the
// deadline error is returned so callers can answer with a typed timeout
// rather than an empty success.
func (k *Kernel) explainProgressive(ctx context.Context, x []float64, base, fx float64, budget int) (xai.Attribution, error) {
	d := len(x)

	// One pooled scratch serves the enumeration or every block: each draw
	// clears and re-carves it, and no block reads a predecessor's masks or
	// vals.
	sc := getScratch()
	defer sc.release()

	// Small feature counts enumerate exactly in one pass: no sampling
	// noise, converged by construction.
	if total := (1 << uint(d)) - 2; d <= 20 && total <= budget {
		masks, weights := enumerateCoalitions(d, sc)
		vals := sc.valsFor(len(masks))
		if err := k.evalCoalitions(ctx, x, masks, nil, vals, sc); err != nil {
			return xai.Attribution{}, err
		}
		phi, err := solvePhi(masks, weights, vals, base, fx, k.ridge(), sc)
		if err != nil {
			return xai.Attribution{}, err
		}
		return xai.Attribution{Names: k.Names, Phi: phi, Base: base, Value: fx,
			Diag: &xai.Diag{Converged: true, SamplesUsed: total, Blocks: 1}}, nil
	}

	block := k.BlockSamples
	if block <= 0 {
		block = defaultBlockSamples
	}
	if block > budget {
		block = budget
	}
	tol := k.ConvergeTol
	if tol == 0 {
		tol = defaultConvergeTol
	}
	deadline, _ := ctx.Deadline()

	// Seeded once: every block continues the same stream.
	sc.rng.Seed(k.Seed + 0x9E3779B9)
	//lint:allow poolalloc mean escapes as Attribution.Phi
	mean := make([]float64, d)
	//lint:allow poolalloc per-call Welford state, same shape as the escaping mean
	m2 := make([]float64, d)
	blocks, used := 0, 0
	converged := false
	var avgBlock time.Duration
	for used < budget {
		// Stop before a block that cannot finish: once the remaining wall
		// time is under ~1.25× the running per-block cost, the estimate in
		// hand is the best answer the deadline allows.
		if blocks > 0 && avgBlock > 0 && time.Until(deadline) < avgBlock+avgBlock/4 {
			break
		}
		if err := xai.Canceled(ctx, "shap"); err != nil {
			if blocks > 0 && errors.Is(err, context.DeadlineExceeded) {
				break
			}
			return xai.Attribution{}, err
		}
		n := block
		if rem := budget - used; n > rem {
			n = rem
		}
		start := time.Now()
		masks, weights, first := sampleCoalitions(d, n, sc)
		vals := sc.valsFor(len(masks))
		if err := k.evalCoalitions(ctx, x, masks, first, vals, sc); err != nil {
			if blocks > 0 && errors.Is(err, context.DeadlineExceeded) {
				break
			}
			return xai.Attribution{}, err
		}
		phiB, err := solvePhi(masks, weights, vals, base, fx, k.ridge(), sc)
		if err != nil {
			return xai.Attribution{}, err
		}
		blocks++
		used += len(masks)
		// Welford update of the per-feature mean and spread across blocks.
		for j, v := range phiB {
			delta := v - mean[j]
			mean[j] += delta / float64(blocks)
			m2[j] += delta * (v - mean[j])
		}
		elapsed := time.Since(start)
		if avgBlock == 0 {
			avgBlock = elapsed
		} else {
			avgBlock = (avgBlock + elapsed) / 2
		}
		if tol > 0 && blocks >= minConvergeBlocks &&
			maxCIHalf(m2, blocks) <= tol*attrScale(mean, fx-base) {
			converged = true
			break
		}
	}
	diag := &xai.Diag{Converged: converged, SamplesUsed: used, Blocks: blocks}
	if blocks >= 2 {
		diag.CIHalf = ciHalfWidths(m2, blocks)
	}
	return xai.Attribution{Names: k.Names, Phi: mean, Base: base, Value: fx, Diag: diag}, nil
}

// ciHalfWidths converts Welford m2 accumulators over n block estimates
// into 95% confidence half-widths of the mean.
func ciHalfWidths(m2 []float64, n int) []float64 {
	//lint:allow poolalloc CI half-widths escape into Diag.CIHalf
	out := make([]float64, len(m2))
	denom := float64(n) * float64(n-1)
	for j, v := range m2 {
		out[j] = 1.96 * math.Sqrt(v/denom)
	}
	return out
}

func maxCIHalf(m2 []float64, n int) float64 {
	var worst float64
	denom := float64(n) * float64(n-1)
	for _, v := range m2 {
		if half := 1.96 * math.Sqrt(v/denom); half > worst {
			worst = half
		}
	}
	return worst
}

// attrScale is the magnitude the convergence tolerance is relative to:
// the explained gap or the largest single contribution, whichever is
// larger, floored so a zero-gap prediction cannot demand infinite
// precision.
func attrScale(phi []float64, gap float64) float64 {
	scale := math.Abs(gap)
	for _, p := range phi {
		if a := math.Abs(p); a > scale {
			scale = a
		}
	}
	return math.Max(scale, 1e-9)
}
