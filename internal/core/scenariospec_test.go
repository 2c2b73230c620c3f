package core

import (
	"encoding/json"
	"testing"

	"nfvxai/internal/nfv/chain"
	"nfvxai/internal/nfv/sla"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/nfv/traffic"
	"nfvxai/internal/nfv/vnf"
)

// legacyWeb and legacyNAT are verbatim copies of the pre-registry
// hard-coded constructors; the parity tests pin the spec-compiled
// scenarios to them bit-for-bit.
func legacyWeb() Scenario {
	return Scenario{
		Name: "web-sfc",
		Groups: func() []*chain.Group {
			return []*chain.Group{
				chain.NewGroup("fw", vnf.Firewall, 2, 2),
				chain.NewGroup("ids", vnf.IDS, 2, 2),
				chain.NewGroup("lb", vnf.LoadBalancer, 1, 2),
			}
		},
		GroupNames: []string{"fw", "ids", "lb"},
		Traffic: traffic.Profile{
			BaseFPS:          30000,
			DiurnalAmplitude: 0.7,
			PeakHour:         13,
			BurstRatio:       4,
			BurstRate:        0.02,
			FlashCrowds:      []traffic.FlashCrowd{{StartSec: 11.5 * 3600, DurationSec: 1800, Multiplier: 2.2}},
		},
		SLO:      sla.SLO{MaxLatencyMs: 4, MaxLossRate: 0.01},
		EpochSec: 5,
	}
}

func legacyNAT() Scenario {
	return Scenario{
		Name: "nat-edge",
		Groups: func() []*chain.Group {
			return []*chain.Group{
				chain.NewGroup("nat", vnf.NAT, 2, 2),
				chain.NewGroup("mon", vnf.Monitor, 1, 2),
			}
		},
		GroupNames: []string{"nat", "mon"},
		Traffic: traffic.Profile{
			BaseFPS:          95000,
			DiurnalAmplitude: 0.5,
			PeakHour:         20,
			BurstRatio:       6,
			BurstRate:        0.05,
		},
		SLO:      sla.SLO{MaxLatencyMs: 1.5, MaxLossRate: 0.01},
		EpochSec: 5,
	}
}

func datasetsEqual(t *testing.T, label string, legacy, compiled Scenario) {
	t.Helper()
	const seed, hours = 3, 0.3
	a, err := legacy.GenerateDataset(seed, hours, telemetry.TargetBottleneckUtil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compiled.GenerateDataset(seed, hours, telemetry.TargetBottleneckUtil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || a.Len() != b.Len() || a.NumFeatures() != b.NumFeatures() {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", label, a.Len(), a.NumFeatures(), b.Len(), b.NumFeatures())
	}
	for j, n := range a.Names {
		if b.Names[j] != n {
			t.Fatalf("%s: feature %d name %q vs %q", label, j, n, b.Names[j])
		}
	}
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("%s: row %d target %v vs %v", label, i, a.Y[i], b.Y[i])
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, a.X[i][j], b.X[i][j])
			}
		}
	}
}

// TestScenarioSpecParity proves the hard-coded switch could be deleted:
// both paper scenarios, resolved through the scenario registry, generate
// bit-identical datasets to the legacy constructors for a fixed seed.
func TestScenarioSpecParity(t *testing.T) {
	reg := NewScenarioRegistry()
	for _, tc := range []struct {
		alias  string
		legacy Scenario
	}{
		{"web", legacyWeb()},
		{"nat", legacyNAT()},
	} {
		sc, err := reg.Scenario(tc.alias)
		if err != nil {
			t.Fatal(err)
		}
		datasetsEqual(t, tc.alias, tc.legacy, sc)
	}
}

func TestScenarioSpecJSONRoundTrip(t *testing.T) {
	for _, sp := range []ScenarioSpec{WebScenarioSpec(), NATScenarioSpec()} {
		raw, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		var back ScenarioSpec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		sc, err := back.Compile()
		if err != nil {
			t.Fatalf("%s: compile after round trip: %v", sp.Name, err)
		}
		orig := mustCompile(sp)
		datasetsEqual(t, sp.Name+"-json", orig, sc)
	}
}

func TestScenarioSpecValidate(t *testing.T) {
	good := WebScenarioSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*ScenarioSpec){
		"empty name":      func(sp *ScenarioSpec) { sp.Name = "" },
		"slash name":      func(sp *ScenarioSpec) { sp.Name = "a/b" },
		"no groups":       func(sp *ScenarioSpec) { sp.Groups = nil },
		"dup group":       func(sp *ScenarioSpec) { sp.Groups[1].Name = sp.Groups[0].Name },
		"bad kind":        func(sp *ScenarioSpec) { sp.Groups[0].Kind = "blockchain" },
		"replica bound":   func(sp *ScenarioSpec) { sp.Groups[0].Replicas = MaxGroupReplicas + 1 },
		"cores bound":     func(sp *ScenarioSpec) { sp.Groups[0].CoresPerInstance = -1 },
		"zero fps":        func(sp *ScenarioSpec) { sp.Traffic.BaseFPS = 0 },
		"diurnal range":   func(sp *ScenarioSpec) { sp.Traffic.DiurnalAmplitude = 1 },
		"burst ratio":     func(sp *ScenarioSpec) { sp.Traffic.BurstRatio = 0.5 },
		"flash crowd":     func(sp *ScenarioSpec) { sp.Traffic.FlashCrowds[0].Multiplier = 0.9 },
		"loss rate range": func(sp *ScenarioSpec) { sp.SLO.MaxLossRate = 1.5 },
		"epoch bound":     func(sp *ScenarioSpec) { sp.EpochSec = 7200 },
	} {
		sp := WebScenarioSpec()
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestScenarioRegistryRegisterLookup(t *testing.T) {
	reg := NewScenarioRegistry()
	if reg.Len() != 2 {
		t.Fatalf("builtin count %d", reg.Len())
	}
	cdn := ScenarioSpec{
		Name:        "video-cdn",
		Description: "5-hop video CDN chain",
		Groups: []GroupSpec{
			{Name: "fw", Kind: "firewall", Replicas: 2, CoresPerInstance: 2},
			{Name: "dpi", Kind: "dpi", Replicas: 2, CoresPerInstance: 2},
			{Name: "ratelim", Kind: "ratelimiter", Replicas: 1, CoresPerInstance: 2},
			{Name: "cache-lb", Kind: "lb", Replicas: 2, CoresPerInstance: 2},
			{Name: "mon", Kind: "monitor", Replicas: 1, CoresPerInstance: 1},
		},
		Traffic: TrafficSpec{BaseFPS: 20000, DiurnalAmplitude: 0.6, PeakHour: 21, BurstRatio: 3, BurstRate: 0.03},
		SLO:     SLOSpec{MaxLatencyMs: 8, MaxLossRate: 0.02},
	}
	norm, err := reg.Register(cdn, "cdn")
	if err != nil {
		t.Fatal(err)
	}
	if norm.EpochSec != 5 || norm.PropagationMs != 0.05 {
		t.Fatalf("defaults not applied: %+v", norm)
	}
	for _, name := range []string{"video-cdn", "cdn"} {
		sc, err := reg.Scenario(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.GroupNames) != 5 || sc.GroupNames[3] != "cache-lb" {
			t.Fatalf("%s: groups %v", name, sc.GroupNames)
		}
	}
	ds, err := mustCompile(norm).GenerateDataset(1, 0.2, telemetry.TargetChainLatency)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 || ds.NumFeatures() != len(telemetry.FeatureNames(norm.GroupNames())) {
		t.Fatalf("cdn dataset shape (%d,%d)", ds.Len(), ds.NumFeatures())
	}
	// Duplicate names and aliases are rejected.
	if _, err := reg.Register(cdn); err == nil {
		t.Fatal("duplicate register accepted")
	}
	if _, err := reg.Register(ScenarioSpec{Name: "other"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Fatal("unknown scenario resolved")
	}
}
