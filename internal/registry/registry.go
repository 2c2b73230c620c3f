// Package registry is the model-registry subsystem behind the versioned
// serving API: a concurrent-safe catalog of named scenario×model×target
// pipelines, each with a lifecycle (training → ready | failed). Models are
// trained asynchronously — Create returns immediately with the entry in
// StatusTraining and a background goroutine hot-swaps the trained pipeline
// in when it is ready — so one explaind process can grow new deployments
// while serving traffic from the ones already live.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"
)

// Status is a model's lifecycle state.
type Status int

const (
	// StatusTraining means the background build is still running; the
	// entry exists but has no servable pipeline yet.
	StatusTraining Status = iota
	// StatusReady means the pipeline is live and serving.
	StatusReady
	// StatusFailed means the build errored; Entry.Err carries the cause.
	StatusFailed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusTraining:
		return "training"
	case StatusReady:
		return "ready"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Spec names one scenario×model×target combination to train and serve.
type Spec struct {
	// Name is the registry key. Defaults to "scenario/model/target".
	Name string `json:"name,omitempty"`
	// Scenario names a registered scenario — a builtin ("web", "nat") or
	// any spec registered at runtime via the scenario registry.
	Scenario string `json:"scenario"`
	// Model is "linear", "cart", "rf", "gbt" or "mlp".
	Model string `json:"model"`
	// Target is "util", "latency" or "violation".
	Target string `json:"target"`
	// Hours is virtual hours of training telemetry (default 24).
	Hours float64 `json:"hours,omitempty"`
	// Seed drives simulation and training (default 1).
	Seed int64 `json:"seed,omitempty"`
	// ShapSamples bounds KernelSHAP coalitions (0 = pipeline default).
	ShapSamples int `json:"shap_samples,omitempty"`
}

// WithDefaults normalizes optional fields and derives the name.
func (sp Spec) WithDefaults() Spec {
	if sp.Hours <= 0 {
		sp.Hours = 24
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Name == "" {
		sp.Name = fmt.Sprintf("%s/%s/%s", sp.Scenario, sp.Model, sp.Target)
	}
	return sp
}

// MaxHours caps the virtual telemetry horizon a spec may request (30
// days); MaxShapSamples caps KernelSHAP coalitions, at the bound every
// explainer build enforces (xai.MaxSamples). Both bound the work a
// single POST /v1/models can enqueue in a background goroutine.
const (
	MaxHours       = 720.0
	MaxShapSamples = xai.MaxSamples
)

// Validate checks the spec's model, target and work bounds. Scenario
// existence is registry-scoped (scenarios can be registered at runtime),
// so it is checked by Registry.ValidateSpec, not here.
func (sp Spec) Validate() error {
	if _, err := ModelKindFor(sp.Model); err != nil {
		return err
	}
	if _, err := TargetFor(sp.Target); err != nil {
		return err
	}
	if sp.Hours < 0 || sp.Hours > MaxHours {
		return fmt.Errorf("registry: hours %g out of range [0, %g] (0 = default)", sp.Hours, MaxHours)
	}
	if sp.ShapSamples < 0 || sp.ShapSamples > MaxShapSamples {
		return fmt.Errorf("registry: shap_samples %d out of range [0, %d]", sp.ShapSamples, MaxShapSamples)
	}
	return nil
}

// ValidateSpec is Spec.Validate plus scenario resolution against this
// registry's scenario catalog, so specs may reference scenarios registered
// at runtime.
func (r *Registry) ValidateSpec(sp Spec) error {
	if _, err := r.Scenarios.Lookup(sp.Scenario); err != nil {
		return err
	}
	return sp.Validate()
}

// ParseSpec parses the "scenario:model:target[:hours]" form used by
// explaind's repeated -model flag, resolving the scenario against the
// builtin catalog (CLI flags are parsed before anything can be registered
// at runtime). Hours stays 0 when omitted so callers can distinguish
// "unset" from an explicit value; Create, AddReady and BuildPipeline
// default it to 24.
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return Spec{}, fmt.Errorf("registry: spec %q: want scenario:model:target[:hours]", s)
	}
	sp := Spec{Scenario: parts[0], Model: parts[1], Target: parts[2]}
	if len(parts) == 4 {
		h, err := strconv.ParseFloat(parts[3], 64)
		if err != nil || h <= 0 {
			return Spec{}, fmt.Errorf("registry: spec %q: bad hours %q", s, parts[3])
		}
		sp.Hours = h
	}
	if _, err := builtinScenarios.Lookup(sp.Scenario); err != nil {
		return Spec{}, err
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	sp.Name = fmt.Sprintf("%s/%s/%s", sp.Scenario, sp.Model, sp.Target)
	return sp, nil
}

// builtinScenarios backs ParseSpec's scenario resolution: the two paper
// scenarios, shared read-only across all parses.
var builtinScenarios = core.NewScenarioRegistry()

// reservedSegments are the serving actions routed under a model's path;
// a name ending in one would shadow its own endpoints.
var reservedSegments = map[string]bool{
	"predict": true, "explain": true, "whatif": true, "importance": true, "schema": true,
	"explainers": true, "jobs": true, "stream": true, "artifact": true, "import": true,
}

// ValidateName checks that a model name is addressable over the HTTP API:
// slash-separated segments of [A-Za-z0-9._-] with no empty, "." or ".."
// segments, not ending in a reserved action segment. URL delimiters
// ("?", "#", "%", ...) would make the model unreachable once registered.
func ValidateName(name string) error {
	if name == "" {
		return errors.New("registry: empty model name")
	}
	segs := strings.Split(name, "/")
	for _, seg := range segs {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("registry: name %q: empty or dot path segment", name)
		}
		for _, c := range seg {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
				c == '.' || c == '_' || c == '-') {
				return fmt.Errorf("registry: name %q: invalid character %q", name, c)
			}
		}
	}
	if last := segs[len(segs)-1]; reservedSegments[last] {
		return fmt.Errorf("registry: name %q: reserved trailing segment %q", name, last)
	}
	return nil
}

// ModelKindFor resolves a model-zoo kind by name.
func ModelKindFor(name string) (core.ModelKind, error) {
	for _, k := range core.ZooKinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("registry: unknown model %q (want linear|cart|rf|gbt|mlp)", name)
}

// TargetFor resolves a telemetry prediction target by name.
func TargetFor(name string) (telemetry.TargetKind, error) {
	switch name {
	case "util":
		return telemetry.TargetBottleneckUtil, nil
	case "latency":
		return telemetry.TargetChainLatency, nil
	case "violation":
		return telemetry.TargetViolation, nil
	default:
		return 0, fmt.Errorf("registry: unknown target %q (want util|latency|violation)", name)
	}
}

// BuildPipeline is the production builder: resolve the scenario through
// this registry's scenario catalog, simulate it, train the model, wire
// the explainer background. It is the default Builder of a Registry and
// runs inside Create's background goroutine — which is why the scenario
// is resolved here, at build time, so a spec can reference a scenario
// registered after the process started.
func (r *Registry) BuildPipeline(sp Spec) (*core.Pipeline, error) {
	sp = sp.WithDefaults()
	sc, err := r.Scenarios.Scenario(sp.Scenario)
	if err != nil {
		return nil, err
	}
	kind, err := ModelKindFor(sp.Model)
	if err != nil {
		return nil, err
	}
	target, err := TargetFor(sp.Target)
	if err != nil {
		return nil, err
	}
	ds, err := sc.GenerateDataset(sp.Seed, sp.Hours, target)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPipeline(kind, ds, sp.Seed)
	if err != nil {
		return nil, err
	}
	if sp.ShapSamples > 0 {
		p.ShapSamples = sp.ShapSamples
	}
	return p, nil
}

// Entry is a point-in-time snapshot of one registered model.
type Entry struct {
	Spec      Spec
	Status    Status
	Err       string
	CreatedAt time.Time
	ReadyAt   time.Time
	// Retrains counts successful hot-swaps (Swap) since creation; ReadyAt
	// moves forward with each one.
	Retrains int
	// Pipeline is non-nil iff Status == StatusReady.
	Pipeline *core.Pipeline
}

// entry is the mutable record behind Entry snapshots.
type entry struct {
	spec      Spec
	status    Status
	err       string
	createdAt time.Time
	readyAt   time.Time
	retrains  int
	pipeline  *core.Pipeline
	// built is closed when Create's background build finishes; nil for
	// an entry that never had one.
	built chan struct{}
}

// Registry is the concurrent-safe model catalog.
type Registry struct {
	// Builder trains a pipeline from a spec. nil selects the registry's
	// own BuildPipeline (which resolves scenarios through Scenarios);
	// tests inject controlled builders to drive lifecycle transitions.
	Builder func(Spec) (*core.Pipeline, error)
	// Scenarios is the scenario catalog model specs resolve against. New
	// seeds it with the builtin paper scenarios; the serving layer
	// registers new specs into it at runtime.
	Scenarios *core.ScenarioRegistry

	// OnStoreError observes asynchronous persistence failures (artifact
	// or manifest writes that happen off the request path). nil drops
	// them; serve.Open logs them. Set before concurrent use.
	OnStoreError func(error)

	mu         sync.RWMutex
	models     map[string]*entry
	defaultKey string
	// store, when non-nil, is the durable artifact plane (UseStore);
	// digests tracks each persisted model's current artifact address.
	store   *Store
	digests map[string]string
	// orphans are manifest records whose artifacts failed to load in a
	// SyncManifest round (e.g. a transient I/O error). They are carried
	// forward into every manifest rewrite so a blip never permanently
	// evicts a model whose artifact is still intact on disk; a live model
	// taking the same name supersedes its orphan.
	orphans map[string]ModelRecord
	// storeMu serializes manifest writes so concurrent retrains cannot
	// interleave versions.
	storeMu sync.Mutex
	// xcache, when non-nil, is the explanation result cache attached to
	// every installed pipeline (UseExplainCache).
	xcache *xcache.Cache
}

// New returns an empty registry using the production builder and the
// builtin scenario catalog.
func New() *Registry {
	return &Registry{models: map[string]*entry{}, Scenarios: core.NewScenarioRegistry()}
}

// Built returns a channel that is closed once the named model's
// background build has finished and, when it succeeded, its artifact is
// in the store. For a model with no build running it is closed already.
func (r *Registry) Built(name string) (<-chan struct{}, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("registry: %q: %w", name, ErrNotFound)
	}
	if e.built == nil { // installed ready, restored or adopted: never built here
		c := make(chan struct{})
		close(c)
		return c, nil
	}
	return e.built, nil
}

// ErrExists reports a Create for a name already registered.
var ErrExists = errors.New("model already exists")

// ErrNotFound reports a lookup of an unregistered name.
var ErrNotFound = errors.New("model not found")

// ErrNotReady reports a serving request against a model that is still
// training or has failed.
var ErrNotReady = errors.New("model not ready")

// AddReady registers an already-trained pipeline under sp.Name (or the
// derived default name) and returns the registered name. The first model
// added becomes the default. Used by serve.Open for the synchronously
// trained startup model.
func (r *Registry) AddReady(sp Spec, p *core.Pipeline, now time.Time) (string, error) {
	sp = sp.WithDefaults()
	if err := ValidateName(sp.Name); err != nil {
		return "", err
	}
	r.mu.Lock()
	if _, ok := r.models[sp.Name]; ok {
		r.mu.Unlock()
		return "", fmt.Errorf("registry: %q: %w", sp.Name, ErrExists)
	}
	r.attachCacheLocked(p)
	r.models[sp.Name] = &entry{
		spec: sp, status: StatusReady, createdAt: now, readyAt: now, pipeline: p,
	}
	if r.defaultKey == "" {
		r.defaultKey = sp.Name
	}
	r.mu.Unlock()
	// Persist outside the lock: a store write must not block lookups.
	r.reportStoreErr(r.persistModel(sp.Name))
	return sp.Name, nil
}

// Create registers sp and trains it asynchronously: the entry is visible
// immediately in StatusTraining, and a background goroutine hot-swaps the
// pipeline in (StatusReady) or records the failure (StatusFailed). The
// returned Entry is the initial training-state snapshot. A name whose
// previous build failed may be created again — retraining after a
// transient failure must not require a process restart — but training and
// ready entries are protected by ErrExists.
func (r *Registry) Create(sp Spec) (Entry, error) {
	if err := r.ValidateSpec(sp); err != nil {
		return Entry{}, err
	}
	sp = sp.WithDefaults()
	if err := ValidateName(sp.Name); err != nil {
		return Entry{}, err
	}
	r.mu.Lock()
	if old, ok := r.models[sp.Name]; ok && old.status != StatusFailed {
		r.mu.Unlock()
		return Entry{}, fmt.Errorf("registry: %q: %w", sp.Name, ErrExists)
	}
	e := &entry{spec: sp, status: StatusTraining, createdAt: time.Now(), built: make(chan struct{})}
	r.models[sp.Name] = e
	if r.defaultKey == "" {
		r.defaultKey = sp.Name
	}
	build := r.Builder
	if build == nil {
		build = r.BuildPipeline
	}
	snap := e.snapshotLocked()
	r.mu.Unlock()

	go func() {
		p, err := build(sp)
		r.mu.Lock()
		if err != nil {
			e.status, e.err = StatusFailed, err.Error()
		} else {
			// Hot swap: readers holding a pipeline from a previous Lookup
			// keep serving it; new lookups see the trained one.
			r.attachCacheLocked(p)
			e.status, e.pipeline, e.readyAt = StatusReady, p, time.Now()
		}
		r.mu.Unlock()
		if err == nil {
			// The artifact lands before Built's channel closes, so a
			// waiter that observes "ready" can already restart from the
			// store.
			r.reportStoreErr(r.persistModel(sp.Name))
		}
		close(e.built)
	}()
	return snap, nil
}

// snapshotLocked copies the entry; callers must hold the registry lock.
func (e *entry) snapshotLocked() Entry {
	return Entry{
		Spec:      e.spec,
		Status:    e.status,
		Err:       e.err,
		CreatedAt: e.createdAt,
		ReadyAt:   e.readyAt,
		Retrains:  e.retrains,
		Pipeline:  e.pipeline,
	}
}

// Swap hot-swaps a ready model's pipeline in place — the streaming
// retrain path — and returns the model's new retrain count. Readers
// holding the old pipeline from a previous Lookup keep serving it; new
// lookups see the retrained one. Only ready models may be swapped: a
// training model has a build in flight that would race the swap, and a
// failed model must go through Create's retry path so its failure stays
// observable.
func (r *Registry) Swap(name string, p *core.Pipeline, now time.Time) (int, error) {
	if p == nil {
		return 0, fmt.Errorf("registry: swap %q: nil pipeline", name)
	}
	r.mu.Lock()
	e, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return 0, fmt.Errorf("registry: %q: %w", name, ErrNotFound)
	}
	if e.status != StatusReady {
		status := e.status
		r.mu.Unlock()
		return 0, fmt.Errorf("registry: swap %q is %s: %w", name, status, ErrNotReady)
	}
	old := e.pipeline
	r.attachCacheLocked(p)
	e.pipeline = p
	e.readyAt = now
	e.retrains++
	retrains := e.retrains
	c := r.xcache
	r.mu.Unlock()
	// The swapped-out artifact's digest can never be requested again —
	// cache keys embed the digest — so its in-process entries are dead
	// weight; release them (outside the lock, like the store write).
	r.dropCacheEntries(old, c)
	// Persist the retrained pipeline so a restart serves the adapted
	// model, not the stale pre-drift one.
	r.reportStoreErr(r.persistModel(name))
	return retrains, nil
}

// Get returns a snapshot of the named model.
func (r *Registry) Get(name string) (Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return Entry{}, fmt.Errorf("registry: %q: %w", name, ErrNotFound)
	}
	return e.snapshotLocked(), nil
}

// Lookup returns the live pipeline for a ready model. It distinguishes
// ErrNotFound (no such name) from ErrNotReady (registered but training or
// failed), which the API maps to 404 vs 409.
func (r *Registry) Lookup(name string) (*core.Pipeline, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("registry: %q: %w", name, ErrNotFound)
	}
	if e.status != StatusReady {
		return nil, fmt.Errorf("registry: %q is %s: %w", name, e.status, ErrNotReady)
	}
	return e.pipeline, nil
}

// List returns snapshots of every model, sorted by name.
func (r *Registry) List() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, e.snapshotLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// DefaultName returns the name the legacy unversioned endpoints alias to.
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultKey
}

// SetDefault redirects the legacy alias to the named model.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	if _, ok := r.models[name]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("registry: %q: %w", name, ErrNotFound)
	}
	r.defaultKey = name
	r.mu.Unlock()
	r.reportStoreErr(r.persistManifest())
	return nil
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
