package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrScenarioExists reports a Register for a name or alias already taken.
var ErrScenarioExists = errors.New("scenario already exists")

// ErrScenarioNotFound reports a lookup of an unregistered scenario.
var ErrScenarioNotFound = errors.New("scenario not found")

// ScenarioRegistry is a concurrent-safe catalog of named scenario specs.
// It replaces the hard-coded web|nat switch: the two paper scenarios are
// pre-registered (under their canonical names plus the historical "web"
// and "nat" aliases), and new topologies are registered at runtime —
// POST /v1/scenarios — without recompiling.
type ScenarioRegistry struct {
	mu      sync.RWMutex
	specs   map[string]ScenarioSpec // canonical name → spec
	aliases map[string]string       // alias → canonical name
}

// NewScenarioRegistry returns a registry pre-seeded with the two paper
// scenarios: "web-sfc" (alias "web") and "nat-edge" (alias "nat").
func NewScenarioRegistry() *ScenarioRegistry {
	r := &ScenarioRegistry{specs: map[string]ScenarioSpec{}, aliases: map[string]string{}}
	if _, err := r.Register(WebScenarioSpec(), "web"); err != nil {
		panic(err) // builtin specs are known-good
	}
	if _, err := r.Register(NATScenarioSpec(), "nat"); err != nil {
		panic(err)
	}
	return r
}

// Register validates sp and adds it under its (defaulted) name plus the
// given aliases. Every name and alias must be unused. The normalized spec
// is returned.
func (r *ScenarioRegistry) Register(sp ScenarioSpec, aliases ...string) (ScenarioSpec, error) {
	sp = sp.WithDefaults()
	if err := sp.Validate(); err != nil {
		return ScenarioSpec{}, err
	}
	// Compile once up front so a registered spec can never fail later at
	// feed-start or training time for a reason Validate missed.
	if _, err := sp.Compile(); err != nil {
		return ScenarioSpec{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(sp.Name) {
		return ScenarioSpec{}, fmt.Errorf("core: scenario %q: %w", sp.Name, ErrScenarioExists)
	}
	for _, a := range aliases {
		if !validSegment(a) {
			return ScenarioSpec{}, fmt.Errorf("core: scenario alias %q: want one URL path segment of [A-Za-z0-9._-]", a)
		}
		if a != sp.Name && r.taken(a) {
			return ScenarioSpec{}, fmt.Errorf("core: scenario alias %q: %w", a, ErrScenarioExists)
		}
	}
	r.specs[sp.Name] = sp
	for _, a := range aliases {
		if a != sp.Name {
			r.aliases[a] = sp.Name
		}
	}
	return sp, nil
}

// taken reports whether name is already a canonical name or alias.
// Callers must hold the lock.
func (r *ScenarioRegistry) taken(name string) bool {
	if _, ok := r.specs[name]; ok {
		return true
	}
	_, ok := r.aliases[name]
	return ok
}

// Lookup resolves a canonical name or alias to its spec.
func (r *ScenarioRegistry) Lookup(name string) (ScenarioSpec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if canon, ok := r.aliases[name]; ok {
		name = canon
	}
	sp, ok := r.specs[name]
	if !ok {
		return ScenarioSpec{}, fmt.Errorf("core: scenario %q: %w (registered: %s)",
			name, ErrScenarioNotFound, joinNames(r.namesLocked()))
	}
	return sp, nil
}

// Scenario resolves and compiles the named spec.
func (r *ScenarioRegistry) Scenario(name string) (Scenario, error) {
	sp, err := r.Lookup(name)
	if err != nil {
		return Scenario{}, err
	}
	return sp.Compile()
}

// List returns every registered spec, sorted by canonical name.
func (r *ScenarioRegistry) List() []ScenarioSpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ScenarioSpec, 0, len(r.specs))
	for _, sp := range r.specs {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AliasesOf returns the aliases pointing at the named spec, sorted.
func (r *ScenarioRegistry) AliasesOf(name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for a, canon := range r.aliases {
		if canon == name {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// namesLocked returns every resolvable name — canonical names and
// aliases — sorted. The caller holds r.mu.
func (r *ScenarioRegistry) namesLocked() []string {
	out := make([]string, 0, len(r.specs)+len(r.aliases))
	for n := range r.specs {
		out = append(out, n)
	}
	for a := range r.aliases {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered specs (aliases excluded).
func (r *ScenarioRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.specs)
}

func joinNames(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
