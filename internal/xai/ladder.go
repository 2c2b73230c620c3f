package xai

import (
	"time"

	"nfvxai/internal/ml"
)

// The budget-degradation ladder: when a request carries a latency budget
// that cannot fit the requested method at its requested fidelity, the
// serving layer walks down this order — exact TreeSHAP where the model
// supports it, KernelSHAP with a reduced coalition budget, and finally
// single-feature occlusion (the "perm" rung: d×background predictions,
// no sampling) — and reports the rung it landed on. Only ladder methods
// participate; an explicitly requested non-ladder method (lime, intgrad,
// ...) runs as asked under the deadline and times out with a typed error
// if the budget truly cannot fit it.

// LadderRungs is the degradation order, fastest-exact first.
var LadderRungs = []string{"treeshap", "kernelshap", "occlusion"}

// MinKernelSamples is the smallest coalition budget the ladder will run
// KernelSHAP with; below it the WLS estimate is noise and occlusion's
// exact single-feature sensitivities are strictly better per prediction.
const MinKernelSamples = 32

// budgetFraction is how much of the request budget the ladder plans to
// spend inside the explainer's sampling loop, reserving the rest for
// base-value evaluation, solves, and serialization.
const budgetFraction = 0.7

// CostModel carries the measured quantities PlanBudget prices rungs with.
type CostModel struct {
	// PredNs is the estimated wall nanoseconds of one single-row model
	// prediction (amortized from a batched measurement). Zero means
	// unmeasured: the ladder then assumes everything fits and leaves
	// enforcement to the context deadline.
	PredNs float64
	// Background is the background-sample row count — every KernelSHAP
	// coalition and occlusion column costs this many predictions (a
	// KernelSHAP draw that repeats an earlier one costs none, so a plan
	// is conservative).
	Background int
	// Features is the model's input dimension.
	Features int
}

// coalitionNs is the modeled cost of evaluating one coalition.
func (c CostModel) coalitionNs() float64 {
	nb := c.Background
	if nb < 1 {
		nb = 1
	}
	return c.PredNs * float64(nb)
}

// Plan is a budget-fitting decision for one explain request.
type Plan struct {
	// Method is the rung to run; Opts are the (possibly reduced) options.
	Method string
	Opts   Options
	// Requested is the method the client asked for (or the model default).
	Requested string
	// Downgraded is true when Method differs from Requested or the sample
	// budget was reduced to fit.
	Downgraded bool
	// Reason explains a downgrade in one operator-readable clause.
	Reason string
}

// PlanBudget fits the requested method to a latency budget, walking the
// degradation ladder when it cannot fit as asked. opts.Samples should
// carry the effective sample budget the request would run with (callers
// resolve their defaults first, so "reduced" is relative to what would
// actually have run). Methods outside the ladder pass through untouched.
func PlanBudget(model ml.Predictor, requested string, opts Options, budget time.Duration, cost CostModel) Plan {
	plan := Plan{Method: requested, Opts: opts, Requested: requested}
	start := ladderIndex(requested)
	if start < 0 || budget <= 0 {
		return plan // not a ladder method (or no budget): run as requested
	}
	usable := budgetFraction * float64(budget.Nanoseconds())
	for _, rung := range LadderRungs[start:] {
		switch rung {
		case "treeshap":
			// Exact and cheap (no background sweep); the only question is
			// whether the model decomposes into trees.
			if m, ok := LookupMethod(rung); ok && (m.Compatible == nil || m.Compatible(model)) {
				plan.Method = rung
				return plan
			}
		case "kernelshap":
			want := opts.Samples
			if want <= 0 {
				want = 2048
			}
			fit := want
			if cost.PredNs > 0 {
				fit = int(usable / cost.coalitionNs())
			}
			if fit >= MinKernelSamples {
				samples := want
				if fit < want {
					// Quantize downgrades to powers of two so near-identical
					// budgets reuse one cached explainer instead of churning
					// the LRU with every request's exact fit.
					samples = pow2Floor(fit)
					plan.Downgraded = true
					plan.Reason = "coalition budget reduced to fit latency budget"
				}
				plan.Method = rung
				plan.Opts.Samples = samples
				plan.Downgraded = plan.Downgraded || rung != requested
				if rung != requested {
					plan.Reason = requested + " not applicable; using kernelshap"
				}
				return plan
			}
		case "occlusion":
			// The floor: always accepted. If even d×background predictions
			// cannot finish, the deadline turns it into a typed timeout.
			plan.Method = rung
			plan.Opts.Samples = 0
			plan.Downgraded = rung != requested
			if plan.Downgraded {
				plan.Reason = "budget below minimum kernelshap fidelity; using occlusion"
			}
			return plan
		}
	}
	return plan
}

// ladderIndex returns the position of method in LadderRungs, or -1.
func ladderIndex(method string) int {
	for i, r := range LadderRungs {
		if r == method {
			return i
		}
	}
	return -1
}

// pow2Floor returns the largest power of two ≤ n (n ≥ 1).
func pow2Floor(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}
