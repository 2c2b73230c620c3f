// Package nfvxai is an explainable-AI toolkit for NFV management,
// reproducing "Towards explainable artificial intelligence for network
// function virtualization" (CoNEXT 2020).
//
// The implementation lives under internal/: the NFV substrate
// (internal/nfv/...), the from-scratch ML models (internal/ml/...), the
// explanation methods (internal/xai/...), the pipeline tying them
// together (internal/core), and the versioned multi-model serving layer
// (internal/registry + internal/serve, documented in API.md). Executables
// are under cmd/, runnable examples under examples/, and the benchmarks in
// bench_test.go regenerate every table and figure of the evaluation.
//
// # The explanation plane
//
// Explanation methods are first-class, selectable resources. Every method
// package registers an xai.Method (name, local/global kind, capability
// flags, typed default options) in the package-level registry from init;
// importing internal/core wires the full set: treeshap, kernelshap, lime,
// anchors, counterfactual, and intgrad locally, with pdp, perm, and
// surrogate as global methods. Explainers implement
// Explain(ctx, x) with cancellation checked inside their sampling hot
// loops, so serving deadlines and job cancellation propagate end to end.
// core.Pipeline holds a small per-(method, params) LRU of built
// explainers — the default method's entry reproduces the pre-registry
// explainer bit for bit — and the serving layer exposes the plane as
// GET /v1/models/{name}/explainers, "method"/"params"/"evaluate" on
// explain requests, and the asynchronous /v1/jobs lifecycle
// (global-importance, pdp-grid, surrogate-tree, cleverhans-audit) with
// progress and cancellation.
//
// # The streaming data plane
//
// Scenarios are declarative data, not code: core.ScenarioSpec is the
// JSON-serializable description of a testbed (chain composition, traffic
// shape, SLO, epoch), compiled on demand into the runnable core.Scenario.
// A concurrent core.ScenarioRegistry catalogs specs — the two paper
// scenarios are pre-registered ("web-sfc"/"web", "nat-edge"/"nat") and
// new topologies register at runtime through POST /v1/scenarios, then
// train, serve and stream without a process restart. On top sits
// internal/feed, the live-telemetry layer: a feed runs a scenario's
// simulated world continuously on a background goroutine (virtual time
// throttled to wall time at a configurable rate) or accepts external
// records over POST /v1/feeds/{name}/records in the same wire schema,
// fanning telemetry.Record streams out to subscribers over non-blocking
// channels. Models attach to feeds (POST /v1/feeds/{name}/attach): a
// monitor goroutine extracts (features, next-epoch target) examples into
// a ring-bounded streaming dataset, scores each against the live model,
// and a drift detector compares a sliding recent window against a frozen
// post-training baseline (prediction-error ratio and feature-mean shift).
// Drift submits a retrain job through the jobs subsystem, which trains on
// the streamed window and hot-swaps the pipeline via the registry
// lifecycle; GET /v1/models/{name}/stream serves the feed back as
// Server-Sent Events pairing every record with its prediction and top-k
// attribution, micro-batched through the batch-inference fast path.
//
// # Performance: batch inference
//
// Explanations are thousands of perturbed model evaluations, so the hot
// path is batched end to end. Models expose ml.BatchPredictor
// (PredictBatch over a row matrix, bit-identical to a Predict loop):
// linear models as a mat-vec sweep, the MLP as a layer-wise pass over
// reused buffers, and trees via a flattened breadth-first routing layout
// (16-byte records, adjacent siblings, self-looping leaves) with forest
// and GBT batches sharded across a goroutine pool. The explainers —
// KernelSHAP, LIME, PDP/ICE, permutation importance — assemble their
// perturbation matrices in flat buffers and evaluate them with single
// batched calls; KernelSHAP additionally collapses additive tree
// ensembles into per-(tree, background) divergence trees so each
// coalition is a handful of mask lookups. External models that implement
// only Predict keep working through a worker-chunked fallback with
// identical results. TreeSHAP, the default explainer of every tree
// model, recurses over one depth × width path arena per explain and
// computes each tree's expected value once per explainer, so a 40-tree
// forest explain makes 4 allocations instead of 9,333 and runs about
// 1.8× faster (BENCH_PR22.json). Benchmark pairs in perf_bench_test.go
// quantify the win (see BENCH_PR2.json and the Performance section of
// API.md).
//
// # The kernel plane
//
// Under the batch layer sits a mechanical-sympathy kernel plane
// (internal/mat, internal/sched, the MLP batch paths in internal/ml/nn). Dense
// linear algebra is one set of plain loops in internal/mat. The weighted
// least-squares solves at the heart of linear regression (unit weights),
// KernelSHAP and LIME run through SolveWeightedRidgeInto: pooled
// gram/rhs workspaces and an in-place Cholesky with a QR fallback for
// singular systems, so a steady-state explanation performs no solver
// allocation (batched KernelSHAP over the forest runs at 6 allocs/op,
// LIME at 3 — BENCH_PR10.json; MLP KernelSHAP still made ~61,500, about
// one per evaluated row, until the wrapper change below). The MLP's batch path
// runs each layer through a 4-row register tile over a transposed weight
// panel held in pooled chunk scratch: four rows share every weight
// load, and each output keeps Predict's summation order, so batch output
// stays bit-identical. The standardizing wrapper in front of the MLP and
// linear models standardizes chunk-wise into pooled rows instead
// of allocating a vector per row; together they make a 1024-coalition
// MLP KernelSHAP explain about 3x faster (BENCH_PR13.json). On amd64
// CPUs with AVX2 (CPUID and XGETBV, checked once at start-up) the batch
// path walks 4-row blocks, stored feature-major, through every layer
// instead, with a Go-assembly kernel: each YMM lane holds one row, eight
// outputs advance together with the weights read where they lie, and
// every sum is formed as Predict forms it (bias first, inputs in
// ascending order, a separate multiply and add with Predict's operand
// order, no FMA), so batch output stays bit-identical. The tile remains
// the path everywhere else and the reference the parity tests compare
// against. The kernel made the same explain 3.8x faster at one core
// and lifted explainbench's cold-kernelshap throughput from 16.3 to
// 56.4 req/s (BENCH_PR26.json). KernelSHAP then cut two kinds of
// repeated work, each without moving a bit. Its sampler draws
// coalitions with replacement, so it records each draw's first
// identical draw (a hash of the mask, confirmed by comparing masks) and
// only first occurrences are evaluated; a repeat copies its first
// occurrence's value, which is the value it would have computed, and the
// WLS solve still sees every draw. And for the standardizing wrapper it
// evaluates the wrapper's inner model on rows mixed from a background
// standardized once per explainer and an instance standardized once per
// call: standardization scales each feature on its own, so that mix is
// the standardized hybrid bit for bit, and the inner model is used only
// after it reproduces the wrapper's Predict on the background. At the
// served seed a 1024-coalition explain evaluates 49,201 rows instead of
// 61,441, and cold-kernelshap throughput, measured beside its parent
// on the same host, rose from 90.5 to 122.1 req/s (BENCH_PR28.json).
// Fan-out across all of it flows through one pool of helper tokens
// (internal/sched), sized once (explaind -sched-workers) instead of
// per-call-site goroutine spawning. The pool
// only fans out: every kernel keeps its scratch in its own sync.Pool
// (the MLP's chunk buffers, the wrapper's standardized rows, KernelSHAP,
// LIME and the solver's workspaces). Its helpers are call-scoped:
// ParallelFor takes idle tokens, runs a goroutine per token beside the
// caller and waits for them, so no goroutine outlives the call that
// started it and the pool needs no shutdown; the -sched-pin flag went
// with the long-lived workers it pinned.
//
// # The durable artifact plane
//
// Nothing trained is lost on exit. Every model kind serializes to a
// versioned binary blob (internal/wire: little-endian scalars, floats as
// exact IEEE-754 bit patterns) behind ml.EncodeModel/DecodeModel, and
// core.Pipeline.Save/LoadPipeline capture the whole servable unit —
// model (including the standardizing scaler), frozen train/test splits,
// SHAP background, seed and trained-explainer metadata — with
// bit-identical predict and default-method explain parity after a round
// trip; tree models rebuild their flattened batch-routing layouts on
// load. The registry persists through registry.Store, laid over a
// pluggable blob backend (filesystem first: content-addressed artifacts
// plus an atomically written manifest), persists streaming retrains, and
// moves artifacts between processes via GET /v1/models/{name}/artifact
// and POST /v1/models/import. A boot (explaind -store) restores from the
// store with the same reader the cluster's sync loop uses: serve.Open
// runs one registry.SyncManifest round on the empty registry, so a warm
// start is the first sync round, and -model flags the store already
// holds skip training. Corruption is typed: truncated artifacts, manifest
// version mismatches and unknown model kinds each surface distinct
// errors while the rest of the registry keeps serving.
//
// # The experiment runner
//
// internal/experiment reproduces the paper's core methodology — the
// systematic comparison of explanation methods across workloads — as a
// declarative artifact. An ExperimentSpec (scenarios × model kinds ×
// explainer methods × targets, with seeds and sample budgets) compiles
// into a dependency-aware plan: one dataset per scenario×target, one
// trained pipeline per scenario×target×model, one evaluation cell per
// pipeline×method, executed by a bounded worker pool with no stage
// barriers (a cell runs as soon as its pipeline is ready). Each cell
// reports additivity error, deletion AUC, deletion gap vs random
// orderings and latency per explanation; equal (spec, seed) reproduce
// equal metrics. Sweeps run through POST /v1/experiments on the jobs
// lifecycle (progress, cancellation, persisted result matrices) or
// offline via cmd/experiment.
//
// # Static analysis & invariants
//
// The contracts above are machine-enforced, not folklore. cmd/nfvlint
// is a repo-aware multichecker (built on the stdlib-only framework in
// internal/analysis) whose six analyzers each encode one invariant a
// reviewer would otherwise have to hold in their head: ctxcancel
// (explainer sampling loops poll their context, so serving deadlines
// propagate), seededrand (randomness flows from spec-seeded
// *rand.Rand values, never the global source — equal seeds must mean
// equal results), boundedmake (wire-decoded lengths are bounds-checked
// before sizing allocations — corrupt artifacts fail typed, never
// OOM), lockedcall (no store I/O or blocking operation under a
// registry hot lock, no network I/O under any cluster mutex, no tier-2
// store round trip under an explanation-cache shard lock; snapshot
// under lock, do the slow work after), errcmp
// (sentinel errors travel through errors.Is/As and %w so wrapped
// corruption errors still match), and poolalloc (no bare float-slice
// make on the kernel hot paths — scratch comes from sync.Pools, with
// //lint:allow documenting every legitimate escape). `go run ./cmd/nfvlint ./...` must
// stay clean — CI's lint job enforces it alongside go vet,
// staticcheck and govulncheck — and ./scripts/check.sh runs the same
// wall locally plus the native fuzz targets that probe the
// decode-safety contract with hostile bytes (FuzzDecodeModel,
// FuzzReadWire, FuzzParseSpec) and the serving layer's error contract
// with hostile requests (FuzzServeAPI). Goroutine hygiene is checked the same
// way: the serving, feed and experiment test binaries fail if
// goroutines outlive the tests (internal/testutil/leakcheck).
// CONTRIBUTING.md catalogs the invariants and the narrow
// `//lint:allow` escape hatch.
//
// # The resilience plane
//
// Serving is SLO-aware end to end. Every expensive request can carry a
// latency budget (body budget_ms, X-Budget-Ms header, or the explaind
// -budget-ms default) that becomes a context deadline; budgeted
// KernelSHAP runs progressively — fixed-size coalition blocks with
// per-feature confidence intervals, stopping at convergence or when the
// remaining budget cannot fit another block — and a deadline landing
// mid-run yields the partial estimate (tagged with converged,
// samples_used and ci_half) instead of an error. Before running, a
// capability-aware degradation ladder (treeshap → kernelshap with
// reduced samples → occlusion) prices the request against the model's
// measured per-prediction cost and degrades fidelity, never latency;
// the chosen rung travels in the response's anytime block. Overload is
// shed, not queued: per-model concurrency budgets with a bounded wait
// queue return 503+Retry-After when saturated, and /healthz + /readyz
// report per-model state (ready/degraded/shedding/training/failed)
// plus store health. Persistence failures never gate inference — the
// store's backend sits behind a retrying decorator, registry.RetryBlob
// (jittered exponential backoff, transient-vs-permanent classification,
// circuit breaker with half-open probes), and a full outage degrades
// health while explains keep answering. The whole contract is
// chaos-tested over FSBlob ← ChaosBlob ← RetryBlob ← Store ← Registry:
// registry.ChaosBlob (seeded deterministic error/latency/torn-write
// injection) and feed.Fault (stalls, bursts) drive the internal/chaos
// suite, which asserts — under -race, at a 20% store error rate — that
// every response is a valid, possibly degraded or partial, result or a
// typed 4xx/5xx, with no panics, leaks or wedged locks. A status means
// one thing on every route: internal/serve answers every error through
// one error-to-status table (internal/serve/errors.go; an error no
// entry types is the only 500) and reads every request body through one
// reader, so a body over its cap is a 413 naming the cap wherever its
// extra bytes sit and data after the JSON value is a 400. FuzzServeAPI
// holds the table: under mutated methods, paths, bodies, budgets and
// no_cache flags, every reply is one JSON value carrying X-Request-Id,
// and none is a 500 or a 502.
//
// # The cluster plane
//
// explaind is a stateless, shardable frontend: several processes
// sharing one -store form a serving cluster with no coordinator and no
// new dependencies (internal/cluster). Every node — an explaind process,
// a node of examples/cluster, of the e2e fleet or of the chaos fleet —
// boots through serve.Open, which builds the ring and the sync loop and
// starts them only once the node is wired. A seeded consistent-hash ring —
// FNV-1a with an avalanche finalizer over 64 virtual nodes per member —
// deterministically maps every model name to -replication owner nodes,
// so each node computes identical placement from identical membership
// (static -peers or a -peers-file re-read every probe tick). Requests
// land anywhere: a node that does not own the model reverse-proxies
// /v1/models/{name}/* to the least-loaded alive owner (one hop,
// X-Forwarded-By loop guard; ring order breaks load ties) and falls
// back to its own synced copy when owners are unreachable. Liveness and
// load come from per-peer /readyz probes that snapshot
// membership under the lock, dial without it, and apply results after —
// a discipline the lockedcall analyzer enforces (no network I/O under
// any cluster mutex). Model state replicates through the store, not the
// peer network: registry.SyncManifest pulls the shared manifest on a
// short interval, adopting models trained or imported elsewhere and
// hot-swapping strictly-newer retrains (last-writer-wins per record;
// persistManifest merges concurrent writers so fleets never clobber
// each other). The store itself is object-store-shaped:
// registry.BlobBackend is a put/get/delete/list bucket surface an S3
// adapter can satisfy, and registry.NewStore lays the one artifact store
// over any bucket. The filesystem (FSBlob, behind OpenFSStore) and
// memory (MemBlob) are two such buckets, and the retry and fault
// decorators (RetryBlob, ChaosBlob) are buckets that wrap a bucket;
// conformance suites pin every backend and decorator to MemBlob's
// semantics, and the store over each backend, bare and retry-wrapped,
// to one contract.
// Requests carry X-Request-Id end to end (minted when absent, echoed in
// error bodies) and X-Served-By names the answering node; /healthz
// reports ring ownership, peer liveness and sync lag. The 3-node
// in-process e2e and chaos node-down/partition scenarios assert the
// contract: a model trained on one node serves from every node within a
// sync interval, and killing an owner re-routes with nothing worse than
// a typed shed.
//
// # The explanation cache
//
// Explanations are pure functions of (artifact, method, options,
// instance) — every method seeds its own randomness from the options —
// so repeated results are cached by content, never recomputed
// (internal/xai/xcache). The key is sha256(artifact) x method x the
// normalized option fingerprint x sha256(instance), which makes
// invalidation structural: a retrain or hot-swap produces a new digest
// and simply misses (Swap additionally drops the retired digest's
// entries, pure memory hygiene), two models serving one imported
// artifact share entries, and no flush exists anywhere. Entries live in
// a sharded in-process LRU under a byte budget with optional TTL; only
// deterministic local methods cache, and anytime results only once
// converged. A single-flight coalescer collapses request stampedes: 64
// concurrent identical explains run exactly one KernelSHAP, the other
// 63 inherit the leader's result (leadership migrates if the leader
// dies of its own deadline). The serving layer tags every response
// X-Cache: hit|miss|coalesced|bypass (no_cache opts out per request),
// splits batches so only misses reach the worker pool, and reports
// per-digest counters on /readyz and GET /v1/cachez. An optional tier 2
// persists cacheable entries through the same blob backend the cluster
// shards artifacts over (explaind -cache-tier2; on disk at
// DIR/xcache/<digest>/<leaf>), so a warm-started or newly joined node
// serves explanations the fleet already computed; store round trips
// happen strictly outside shard locks, enforced by lockedcall's
// internal/xai scope. A cache hit is ~16,800x cheaper than the cold
// default-option KernelSHAP it replaces (BENCH_PR9.json, gated by
// cmd/benchdiff). The sampling hot paths it fronts recycle their big
// allocations — coalition masks and LIME neighborhoods — through
// sync.Pools, and TreeSHAP allocates one path arena per explain.
package nfvxai
