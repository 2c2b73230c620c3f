package core

import (
	"fmt"

	"nfvxai/internal/nfv/chain"
	"nfvxai/internal/nfv/sla"
	"nfvxai/internal/nfv/traffic"
	"nfvxai/internal/nfv/vnf"
)

// ScenarioSpec is the declarative, JSON-serializable form of a Scenario:
// everything needed to reconstruct the simulated testbed — chain
// composition, workload shape, SLO, telemetry period — as plain data. New
// topologies (a 5-hop video CDN chain, a multi-tenant variant) are
// registered at runtime from a spec instead of being compiled in.
type ScenarioSpec struct {
	// Name is the scenario registry key: one URL-addressable path segment.
	Name string `json:"name"`
	// Description is free-form operator documentation.
	Description string `json:"description,omitempty"`
	// Groups is the ordered chain composition.
	Groups []GroupSpec `json:"groups"`
	// Traffic is the workload profile (the simulation seed is supplied per
	// run, never part of the spec).
	Traffic TrafficSpec `json:"traffic"`
	// SLO is the chain objective.
	SLO SLOSpec `json:"slo"`
	// EpochSec is the telemetry period (default 5).
	EpochSec float64 `json:"epoch_sec,omitempty"`
	// PropagationMs is the per-hop link latency (default 0.05).
	PropagationMs float64 `json:"propagation_ms,omitempty"`
}

// GroupSpec declares one chain hop: a horizontally scaled VNF group.
type GroupSpec struct {
	// Name is the group label; telemetry feature names derive from it.
	Name string `json:"name"`
	// Kind is the VNF kind by name: firewall, nat, ids, lb, ratelimiter,
	// monitor or dpi.
	Kind string `json:"kind"`
	// Replicas is the initial replica count (default 1).
	Replicas int `json:"replicas,omitempty"`
	// CoresPerInstance is the size of each replica (default 1).
	CoresPerInstance int `json:"cores_per_instance,omitempty"`
}

// TrafficSpec is the serializable subset of traffic.Profile; the flow-size
// and flow-duration distributions keep their simulator defaults.
type TrafficSpec struct {
	BaseFPS          float64          `json:"base_fps"`
	DiurnalAmplitude float64          `json:"diurnal_amplitude,omitempty"`
	PeakHour         float64          `json:"peak_hour,omitempty"`
	BurstRatio       float64          `json:"burst_ratio,omitempty"`
	BurstRate        float64          `json:"burst_rate,omitempty"`
	FlashCrowds      []FlashCrowdSpec `json:"flash_crowds,omitempty"`
}

// FlashCrowdSpec is one transient traffic surge.
type FlashCrowdSpec struct {
	StartSec    float64 `json:"start_sec"`
	DurationSec float64 `json:"duration_sec"`
	Multiplier  float64 `json:"multiplier"`
}

// SLOSpec is the serializable chain objective.
type SLOSpec struct {
	MaxLatencyMs float64 `json:"max_latency_ms"`
	MaxLossRate  float64 `json:"max_loss_rate"`
}

// Bounds a single registered spec may request. They cap the simulation
// work one POST /v1/scenarios can later cause a training or feed goroutine
// to run.
const (
	// MaxScenarioGroups bounds the chain length.
	MaxScenarioGroups = 16
	// MaxGroupReplicas bounds a group's initial replica count.
	MaxGroupReplicas = 64
	// MaxCoresPerInstance bounds each replica's size.
	MaxCoresPerInstance = 32
	// MaxBaseFPS bounds the mean flow arrival rate.
	MaxBaseFPS = 1e8
	// MaxScenarioNameLen bounds scenario and group names. Every ingested
	// record repeats each group name, so the cap keeps a full 512-record
	// ingest on a MaxScenarioGroups-group scenario (2.07 MB at the cap)
	// under the serving layer's 4 MiB body cap.
	MaxScenarioNameLen = 64
)

// WithDefaults returns the spec with optional fields normalized.
func (sp ScenarioSpec) WithDefaults() ScenarioSpec {
	if sp.EpochSec == 0 {
		sp.EpochSec = 5
	}
	if sp.PropagationMs == 0 {
		sp.PropagationMs = 0.05
	}
	for i := range sp.Groups {
		if sp.Groups[i].Replicas == 0 {
			sp.Groups[i].Replicas = 1
		}
		if sp.Groups[i].CoresPerInstance == 0 {
			sp.Groups[i].CoresPerInstance = 1
		}
	}
	return sp
}

// ValidSegment reports whether s is usable as one URL path segment —
// the naming rule shared by scenarios, feeds and model-name segments.
func ValidSegment(s string) bool { return validSegment(s) }

// validSegment reports whether s is one non-empty, non-dot URL path
// segment over [A-Za-z0-9._-] — the charset shared with model names.
func validSegment(s string) bool {
	if s == "" || s == "." || s == ".." {
		return false
	}
	for _, c := range s {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// Validate checks the spec (after WithDefaults) against the known VNF
// kinds and the replica/size/rate bounds.
func (sp ScenarioSpec) Validate() error {
	sp = sp.WithDefaults()
	if !validSegment(sp.Name) || len(sp.Name) > MaxScenarioNameLen {
		return fmt.Errorf("core: scenario name %q: want one URL path segment of at most %d characters of [A-Za-z0-9._-]", sp.Name, MaxScenarioNameLen)
	}
	if len(sp.Groups) == 0 || len(sp.Groups) > MaxScenarioGroups {
		return fmt.Errorf("core: scenario %s: %d groups, want 1..%d", sp.Name, len(sp.Groups), MaxScenarioGroups)
	}
	seen := map[string]bool{}
	for i, g := range sp.Groups {
		if !validSegment(g.Name) || len(g.Name) > MaxScenarioNameLen {
			return fmt.Errorf("core: scenario %s: group %d name %q: want at most %d characters of [A-Za-z0-9._-]", sp.Name, i, g.Name, MaxScenarioNameLen)
		}
		if seen[g.Name] {
			return fmt.Errorf("core: scenario %s: duplicate group %q", sp.Name, g.Name)
		}
		seen[g.Name] = true
		if _, ok := vnf.KindFor(g.Kind); !ok {
			return fmt.Errorf("core: scenario %s: group %q: unknown VNF kind %q", sp.Name, g.Name, g.Kind)
		}
		if g.Replicas < 1 || g.Replicas > MaxGroupReplicas {
			return fmt.Errorf("core: scenario %s: group %q: replicas %d out of [1, %d]", sp.Name, g.Name, g.Replicas, MaxGroupReplicas)
		}
		if g.CoresPerInstance < 1 || g.CoresPerInstance > MaxCoresPerInstance {
			return fmt.Errorf("core: scenario %s: group %q: cores_per_instance %d out of [1, %d]", sp.Name, g.Name, g.CoresPerInstance, MaxCoresPerInstance)
		}
	}
	t := sp.Traffic
	if t.BaseFPS <= 0 || t.BaseFPS > MaxBaseFPS {
		return fmt.Errorf("core: scenario %s: base_fps %g out of (0, %g]", sp.Name, t.BaseFPS, float64(MaxBaseFPS))
	}
	if t.DiurnalAmplitude < 0 || t.DiurnalAmplitude >= 1 {
		return fmt.Errorf("core: scenario %s: diurnal_amplitude %g out of [0, 1)", sp.Name, t.DiurnalAmplitude)
	}
	if t.PeakHour < 0 || t.PeakHour > 24 {
		return fmt.Errorf("core: scenario %s: peak_hour %g out of [0, 24]", sp.Name, t.PeakHour)
	}
	if t.BurstRatio != 0 && (t.BurstRatio < 1 || t.BurstRatio > 1000) {
		return fmt.Errorf("core: scenario %s: burst_ratio %g: want 0 (off) or [1, 1000]", sp.Name, t.BurstRatio)
	}
	if t.BurstRate < 0 {
		return fmt.Errorf("core: scenario %s: negative burst_rate %g", sp.Name, t.BurstRate)
	}
	for i, fc := range t.FlashCrowds {
		if fc.StartSec < 0 || fc.DurationSec <= 0 || fc.Multiplier < 1 {
			return fmt.Errorf("core: scenario %s: flash_crowd %d: want start_sec >= 0, duration_sec > 0, multiplier >= 1", sp.Name, i)
		}
	}
	if sp.SLO.MaxLatencyMs < 0 || sp.SLO.MaxLossRate < 0 || sp.SLO.MaxLossRate > 1 {
		return fmt.Errorf("core: scenario %s: slo latency %g / loss %g out of range", sp.Name, sp.SLO.MaxLatencyMs, sp.SLO.MaxLossRate)
	}
	if sp.EpochSec <= 0 || sp.EpochSec > 3600 {
		return fmt.Errorf("core: scenario %s: epoch_sec %g out of (0, 3600]", sp.Name, sp.EpochSec)
	}
	if sp.PropagationMs < 0 || sp.PropagationMs > 100 {
		return fmt.Errorf("core: scenario %s: propagation_ms %g out of [0, 100]", sp.Name, sp.PropagationMs)
	}
	return nil
}

// GroupNames returns the group names in chain order — the feature schema
// a feed or model built from this spec uses.
func (sp ScenarioSpec) GroupNames() []string {
	names := make([]string, len(sp.Groups))
	for i, g := range sp.Groups {
		names[i] = g.Name
	}
	return names
}

// Compile materializes the spec as a runnable Scenario. The compiled form
// of a builtin spec is bit-identical (same generated datasets for a fixed
// seed) to the scenario the old hard-coded constructors produced.
func (sp ScenarioSpec) Compile() (Scenario, error) {
	sp = sp.WithDefaults()
	if err := sp.Validate(); err != nil {
		return Scenario{}, err
	}
	groups := append([]GroupSpec(nil), sp.Groups...)
	kinds := make([]vnf.Kind, len(groups))
	for i, g := range groups {
		kinds[i], _ = vnf.KindFor(g.Kind) // Validate checked the names
	}
	profile := traffic.Profile{
		BaseFPS:          sp.Traffic.BaseFPS,
		DiurnalAmplitude: sp.Traffic.DiurnalAmplitude,
		PeakHour:         sp.Traffic.PeakHour,
		BurstRatio:       sp.Traffic.BurstRatio,
		BurstRate:        sp.Traffic.BurstRate,
	}
	for _, fc := range sp.Traffic.FlashCrowds {
		profile.FlashCrowds = append(profile.FlashCrowds, traffic.FlashCrowd{
			StartSec: fc.StartSec, DurationSec: fc.DurationSec, Multiplier: fc.Multiplier,
		})
	}
	return Scenario{
		Name: sp.Name,
		Groups: func() []*chain.Group {
			out := make([]*chain.Group, len(groups))
			for i, g := range groups {
				out[i] = chain.NewGroup(g.Name, kinds[i], g.Replicas, g.CoresPerInstance)
			}
			return out
		},
		GroupNames:    sp.GroupNames(),
		Traffic:       profile,
		SLO:           sla.SLO{MaxLatencyMs: sp.SLO.MaxLatencyMs, MaxLossRate: sp.SLO.MaxLossRate},
		EpochSec:      sp.EpochSec,
		PropagationMs: sp.PropagationMs,
	}, nil
}

// mustCompile compiles a known-good (builtin) spec.
func mustCompile(sp ScenarioSpec) Scenario {
	s, err := sp.Compile()
	if err != nil {
		panic(err)
	}
	return s
}

// WebScenarioSpec is the declarative form of the canonical three-hop web
// service chain: firewall → IDS → load balancer under diurnal, bursty
// traffic with a mid-day flash crowd. Provisioned so the bottleneck (IDS)
// sweeps the full utilization range across a day.
func WebScenarioSpec() ScenarioSpec {
	return ScenarioSpec{
		Name:        "web-sfc",
		Description: "three-hop web SFC: firewall → IDS → load balancer, diurnal + flash crowd",
		Groups: []GroupSpec{
			{Name: "fw", Kind: "firewall", Replicas: 2, CoresPerInstance: 2},
			{Name: "ids", Kind: "ids", Replicas: 2, CoresPerInstance: 2},
			{Name: "lb", Kind: "lb", Replicas: 1, CoresPerInstance: 2},
		},
		Traffic: TrafficSpec{
			BaseFPS:          30000,
			DiurnalAmplitude: 0.7,
			PeakHour:         13,
			BurstRatio:       4,
			BurstRate:        0.02,
			FlashCrowds:      []FlashCrowdSpec{{StartSec: 11.5 * 3600, DurationSec: 1800, Multiplier: 2.2}},
		},
		SLO:      SLOSpec{MaxLatencyMs: 4, MaxLossRate: 0.01},
		EpochSec: 5,
	}
}

// NATScenarioSpec is the declarative form of the tighter two-hop
// NAT+monitor chain whose flow-table pressure (not raw rate) drives
// violations — the scenario where naive "load"-only reasoning misleads
// operators.
func NATScenarioSpec() ScenarioSpec {
	return ScenarioSpec{
		Name:        "nat-edge",
		Description: "two-hop NAT edge chain: NAT → monitor, flow-table pressure driven",
		Groups: []GroupSpec{
			{Name: "nat", Kind: "nat", Replicas: 2, CoresPerInstance: 2},
			{Name: "mon", Kind: "monitor", Replicas: 1, CoresPerInstance: 2},
		},
		Traffic: TrafficSpec{
			BaseFPS:          95000,
			DiurnalAmplitude: 0.5,
			PeakHour:         20,
			BurstRatio:       6,
			BurstRate:        0.05,
		},
		SLO:      SLOSpec{MaxLatencyMs: 1.5, MaxLossRate: 0.01},
		EpochSec: 5,
	}
}
