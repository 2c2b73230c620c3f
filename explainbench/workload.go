package main

import (
	"encoding/json"
	"fmt"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/registry"
)

// trainHours is the virtual telemetry every workload's models train on.
const trainHours = 6

// The request shapes.
const (
	hotRows   = 256 // hot-cached: rows the cache is pre-filled with
	batchSize = 32  // batch-churn: instances per batch explain
)

// workload is one traffic mix. Its open-loop rate is fixed here, never
// adapted at run time. hot-cached sends Poisson arrivals at about a third
// of its closed-loop throughput (at half, the capacity swings of a shared
// 2-vCPU machine became queueing swings). The two slow workloads send at
// fixed intervals longer than one explain: with only tens of requests per
// run, Poisson bursts decided how many explains overlapped, and the
// median moved by a quarter from seed to seed.
type workload struct {
	name string
	why  string
	// model and trainSeeds name the pipelines setup trains (registry
	// BuildPipeline on web/<model>/util, trainHours each). The first is
	// served at start; batch-churn hot-swaps between the two.
	model      string
	trainSeeds []int64
	// rate is the open-loop arrival rate in requests per second, and
	// schedule spaces the arrivals (poissonSchedule or fixedSchedule).
	rate     float64
	schedule func(seed int64, rate float64, n int) []time.Duration
	// openShare is the share of the measured seconds spent in the open
	// loop (0 = half); the closed loop gets the rest.
	openShare float64
	// cacheBytes is the result-cache budget.
	cacheBytes int64
	// swapEvery is the hot-swap period during the measured phases (0 = none).
	swapEvery time.Duration
	// newPlan builds the seeded request streams for the trained references.
	newPlan func(refs []*core.Pipeline, seed int64) *plan
}

// request is one generated explain request.
type request struct {
	body  []byte
	rows  []int // rows of plan.pool it explains, in body order
	check bool  // re-checked by the correctness oracle
}

// plan is a workload instantiated for one seed.
type plan struct {
	method string      // explain method sent ("" = the model default)
	batch  bool        // requests carry "instances" rather than "features"
	pool   [][]float64 // the rows requests draw from
	warm   []request   // warm-up, sent during setup
	next   func() request
}

var workloads = []*workload{
	{
		name:       "hot-cached",
		why:        "Zipf-drawn treeshap explains over a 256-row hot set pre-filled into the cache: every request is an xcache hit, pricing serve, registry, core and the cache read path",
		model:      "rf",
		trainSeeds: []int64{1},
		rate:       4500,
		schedule:   poissonSchedule,
		openShare:  0.35,
		cacheBytes: 256 << 20,
		newPlan:    hotPlan,
	},
	{
		name:       "cold-kernelshap",
		why:        "kernelshap explains (1024 coalitions) of never-repeated MLP instances: every request is a cache miss, pricing shap, the model, mat and sched",
		model:      "mlp",
		trainSeeds: []int64{1},
		rate:       2.5,
		schedule:   fixedSchedule,
		openShare:  0.7,
		cacheBytes: 256 << 20,
		newPlan:    coldPlan,
	},
	{
		name:       "batch-churn",
		why:        "32-instance treeshap batches over the whole test set, a cache smaller than the working set and periodic hot swaps: cache inserts, evictions and the batch fan-out",
		model:      "rf",
		trainSeeds: []int64{1, 2},
		rate:       5,
		schedule:   fixedSchedule,
		cacheBytes: 16 << 10,
		swapEvery:  2 * time.Second,
		newPlan:    batchPlan,
	},
}

// phases splits the measured time between the open and the closed loop.
func (w *workload) phases(total time.Duration) (open, closed time.Duration) {
	share := w.openShare
	if share == 0 {
		share = 0.5
	}
	open = time.Duration(float64(total) * share)
	return open, total - open
}

func workloadNamed(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// spec is the registry spec of the workload's i-th model.
func (w *workload) spec(i int) registry.Spec {
	return registry.Spec{Scenario: "web", Model: w.model, Target: "util", Hours: trainHours, Seed: w.trainSeeds[i]}
}

// train builds the workload's reference pipelines through the registry's
// production builder.
func (w *workload) train() ([]*core.Pipeline, error) {
	reg := registry.New()
	refs := make([]*core.Pipeline, len(w.trainSeeds))
	for i := range w.trainSeeds {
		p, err := reg.BuildPipeline(w.spec(i))
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", w.spec(i).Model, err)
		}
		refs[i] = p
	}
	return refs, nil
}

type explainBody struct {
	Features  []float64   `json:"features,omitempty"`
	Instances [][]float64 `json:"instances,omitempty"`
	Method    string      `json:"method,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // float rows from a trained dataset always encode
	}
	return b
}

// hotPlan: single-instance default-method explains, Zipf over a seeded
// 256-row hot set of the test split; warm-up explains every hot row once.
func hotPlan(refs []*core.Pipeline, seed int64) *plan {
	pl := &plan{pool: refs[0].Test.X}
	hot := hotSet(streamSeed(seed, seedRows), len(pl.pool), hotRows)
	bodies := make(map[int][]byte, len(hot))
	for _, r := range hot {
		bodies[r] = mustJSON(explainBody{Features: pl.pool[r]})
		pl.warm = append(pl.warm, request{body: bodies[r], rows: []int{r}})
	}
	z := zipfStream(streamSeed(seed, seedZipf), len(hot))
	smp := newSampler(streamSeed(seed, seedSample), 0.002, 64)
	pl.next = func() request {
		r := hot[z()]
		return request{body: bodies[r], rows: []int{r}, check: smp.take()}
	}
	return pl
}

// coldPlan: kernelshap explains walking a seeded permutation of the test
// rows (then the training rows), so no instance repeats within a run; the
// last two rows of the permutation are reserved for the warm-up.
func coldPlan(refs []*core.Pipeline, seed int64) *plan {
	p := refs[0]
	pl := &plan{method: "kernelshap"}
	pl.pool = append(append(pl.pool, p.Test.X...), p.Train.X...)
	order := permutation(streamSeed(seed, seedRows), len(pl.pool))
	body := func(r int) request {
		return request{body: mustJSON(explainBody{Features: pl.pool[r], Method: pl.method}), rows: []int{r}}
	}
	n := len(order) - 2
	for _, r := range order[n:] {
		pl.warm = append(pl.warm, body(r))
	}
	smp := newSampler(streamSeed(seed, seedSample), 0.1, 6)
	i := 0
	pl.next = func() request {
		if i == n {
			panic("cold-kernelshap: instance pool exhausted") // ~4300 rows, far beyond a run's requests
		}
		rq := body(order[i])
		i++
		rq.check = smp.take()
		return rq
	}
	return pl
}

// batchPlan: batches of 32 instances Zipf-drawn over the whole test split
// (popularity ranks mapped through a seeded permutation); warm-up sends
// one batch per connection from a separate stream.
func batchPlan(refs []*core.Pipeline, seed int64) *plan {
	pl := &plan{batch: true, pool: refs[0].Test.X}
	rank := permutation(streamSeed(seed, seedRows), len(pl.pool))
	draw := func(z func() int) request {
		rq := request{rows: make([]int, batchSize)}
		xs := make([][]float64, batchSize)
		for k := range rq.rows {
			rq.rows[k] = rank[z()]
			xs[k] = pl.pool[rq.rows[k]]
		}
		rq.body = mustJSON(explainBody{Instances: xs})
		return rq
	}
	wz := zipfStream(streamSeed(seed, seedProbe), len(pl.pool))
	pl.warm = []request{draw(wz), draw(wz)}
	z := zipfStream(streamSeed(seed, seedZipf), len(pl.pool))
	smp := newSampler(streamSeed(seed, seedSample), 0.05, 4)
	pl.next = func() request {
		rq := draw(z)
		rq.check = smp.take()
		return rq
	}
	return pl
}
