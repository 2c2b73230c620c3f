// Package core is the paper's contribution: the explainable-AI pipeline
// for NFV management. It wires the substrate (traffic → chains → telemetry)
// to the ML models and the explanation methods, and implements the
// operator-facing workflows the paper argues for — attribution reports for
// individual predictions, global importance profiles, spurious-feature
// ("Clever Hans") audits, counterfactual what-if queries, and the
// experiment suite that regenerates every table and figure.
package core

import (
	"fmt"
	"math/rand"

	"nfvxai/internal/dataset"
	"nfvxai/internal/nfv/chain"
	"nfvxai/internal/nfv/orch"
	"nfvxai/internal/nfv/sim"
	"nfvxai/internal/nfv/sla"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/nfv/traffic"
)

// Scenario bundles a reproducible simulated testbed configuration — the
// runtime (compiled) form of a declarative ScenarioSpec.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Groups builds the chain composition (fresh instances per call).
	Groups func() []*chain.Group
	// GroupNames lists the group names (feature schema).
	GroupNames []string
	// Traffic is the workload profile (Seed is overridden per run).
	Traffic traffic.Profile
	// SLO is the chain objective.
	SLO sla.SLO
	// EpochSec is the telemetry period.
	EpochSec float64
	// PropagationMs is the per-hop link latency (0 = the historical 0.05
	// default, so hand-assembled scenarios keep their old behavior).
	PropagationMs float64
}

// WebScenario is the canonical three-hop web service chain used by most
// experiments, compiled from WebScenarioSpec. See the spec for the
// topology and workload rationale.
func WebScenario() Scenario { return mustCompile(WebScenarioSpec()) }

// NATScenario is the tighter two-hop NAT+monitor chain, compiled from
// NATScenarioSpec.
func NATScenario() Scenario { return mustCompile(NATScenarioSpec()) }

// BuildWorld instantiates the scenario as a running world. seed
// perturbs the traffic; scaler may be nil for static allocation.
func (s Scenario) BuildWorld(seed int64, scaler orch.Scaler) (*sim.World, *sim.ChainHandle, error) {
	w := sim.NewWorld(s.EpochSec)
	profile := s.Traffic
	profile.Seed = seed
	prop := s.PropagationMs
	if prop == 0 {
		prop = 0.05
	}
	c := chain.New(s.Name, prop, s.Groups()...)
	h, err := w.AddChain(sim.ChainSpec{Chain: c, Traffic: profile, SLO: s.SLO, Scaler: scaler})
	if err != nil {
		return nil, nil, fmt.Errorf("core: building %s: %w", s.Name, err)
	}
	return w, h, nil
}

// GenerateDataset runs the scenario for simHours of virtual time and
// returns the telemetry dataset for the given target.
func (s Scenario) GenerateDataset(seed int64, simHours float64, target telemetry.TargetKind) (*dataset.Dataset, error) {
	w, h, err := s.BuildWorld(seed, nil)
	if err != nil {
		return nil, err
	}
	ext := telemetry.NewExtractor(target, s.SLO.MaxLatencyMs, s.GroupNames)
	h.AttachExtractor(ext)
	w.Run(simHours * 3600)
	ds := ext.Dataset()
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: scenario %s produced no data", s.Name)
	}
	return ds, nil
}

// SplitDataset is a convenience seeded 80/20 split.
func SplitDataset(ds *dataset.Dataset, seed int64) (train, test *dataset.Dataset) {
	return ds.Split(rand.New(rand.NewSource(seed)), 0.8)
}
