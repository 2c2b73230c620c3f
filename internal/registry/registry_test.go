package registry

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nfvxai/internal/core"
)

// gatedBuilder blocks each build until release is closed, so tests can
// observe the training state deterministically.
type gatedBuilder struct {
	release chan struct{}
	err     error
}

func (g *gatedBuilder) build(Spec) (*core.Pipeline, error) {
	<-g.release
	if g.err != nil {
		return nil, g.err
	}
	return &core.Pipeline{}, nil
}

func newTestRegistry(g *gatedBuilder) *Registry {
	r := New()
	r.Builder = g.build
	return r
}

func waitDone(t *testing.T, r *Registry, want string) {
	t.Helper()
	built, err := r.Built(want)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-built:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %q build", want)
	}
}

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("web:rf:util")
	if err != nil {
		t.Fatal(err)
	}
	// Hours stays 0 (= unset) so callers can layer their own default
	// without clobbering an explicit ":24".
	if sp.Name != "web/rf/util" || sp.Hours != 0 {
		t.Fatalf("parse: %+v", sp)
	}
	sp, err = ParseSpec("nat:gbt:violation:6")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Hours != 6 || sp.Name != "nat/gbt/violation" {
		t.Fatalf("hours spec: %+v", sp)
	}
	for _, bad := range []string{"web:rf", "web:rf:util:x", "moon:rf:util", "web:svm:util", "web:rf:loss"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestLifecycleTrainingToReady(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{})}
	r := newTestRegistry(g)

	e, err := r.Create(Spec{Scenario: "web", Model: "rf", Target: "util"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Status != StatusTraining || e.Spec.Name != "web/rf/util" {
		t.Fatalf("initial entry %+v", e)
	}
	// Visible while training, but not servable.
	if _, err := r.Lookup("web/rf/util"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Lookup during training: %v", err)
	}
	got, err := r.Get("web/rf/util")
	if err != nil || got.Status != StatusTraining {
		t.Fatalf("Get during training: %+v, %v", got, err)
	}
	built, err := r.Built("web/rf/util")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-built:
		t.Fatal("Built closed while the build is still running")
	default:
	}
	if _, err := r.Built("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Built of an unknown model: %v", err)
	}

	close(g.release)
	waitDone(t, r, "web/rf/util")

	got, err = r.Get("web/rf/util")
	if err != nil || got.Status != StatusReady || got.Pipeline == nil {
		t.Fatalf("after build: %+v, %v", got, err)
	}
	if got.ReadyAt.IsZero() {
		t.Fatal("ReadyAt not stamped")
	}
	if p, err := r.Lookup("web/rf/util"); err != nil || p == nil {
		t.Fatalf("Lookup after ready: %v", err)
	}
}

func TestLifecycleFailed(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{}), err: errors.New("sim exploded")}
	r := newTestRegistry(g)
	if _, err := r.Create(Spec{Scenario: "nat", Model: "gbt", Target: "violation"}); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	waitDone(t, r, "nat/gbt/violation")
	got, err := r.Get("nat/gbt/violation")
	if err != nil || got.Status != StatusFailed || got.Err != "sim exploded" {
		t.Fatalf("failed entry: %+v, %v", got, err)
	}
	if _, err := r.Lookup("nat/gbt/violation"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Lookup of failed model: %v", err)
	}

	// A failed name is reclaimable: Create again with a working builder
	// retrains instead of returning ErrExists.
	g2 := &gatedBuilder{release: make(chan struct{})}
	r.Builder = g2.build
	e, err := r.Create(Spec{Scenario: "nat", Model: "gbt", Target: "violation"})
	if err != nil {
		t.Fatalf("recreate after failure: %v", err)
	}
	if e.Status != StatusTraining {
		t.Fatalf("recreate status %v", e.Status)
	}
	close(g2.release)
	waitDone(t, r, "nat/gbt/violation")
	if p, err := r.Lookup("nat/gbt/violation"); err != nil || p == nil {
		t.Fatalf("lookup after retry: %v", err)
	}
}

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"web/rf/util", "default", "a.b_c-d/e2"} {
		if err := ValidateName(ok); err != nil {
			t.Fatalf("ValidateName(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "/lead", "trail/", "a//b", "a?b", "a#b", "a b", "a/../b", "a/./b", "%2f",
		"x/predict", "x/explain", "whatif", "x/importance", "x/schema"} {
		if err := ValidateName(bad); err == nil {
			t.Fatalf("ValidateName(%q) accepted", bad)
		}
	}
	// Create and AddReady both enforce it.
	r := New()
	if _, err := r.Create(Spec{Name: "bad?name", Scenario: "web", Model: "rf", Target: "util"}); err == nil {
		t.Fatal("Create accepted invalid name")
	}
	if _, err := r.AddReady(Spec{Name: "bad?name"}, &core.Pipeline{}, time.Now()); err == nil {
		t.Fatal("AddReady accepted invalid name")
	}
}

func TestDuplicateAndUnknown(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{})}
	r := newTestRegistry(g)
	defer close(g.release)
	if _, err := r.Create(Spec{Scenario: "web", Model: "rf", Target: "util"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(Spec{Scenario: "web", Model: "rf", Target: "util"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown get: %v", err)
	}
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown lookup: %v", err)
	}
	if err := r.SetDefault("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown default: %v", err)
	}
	if _, err := r.Create(Spec{Scenario: "web", Model: "svm", Target: "util"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// Unbounded or negative training work is rejected, not enqueued.
	for _, sp := range []Spec{
		{Scenario: "web", Model: "rf", Target: "util", Hours: -1},
		{Scenario: "web", Model: "rf", Target: "util", Hours: MaxHours + 1},
		{Scenario: "web", Model: "rf", Target: "util", ShapSamples: -1},
		{Scenario: "web", Model: "rf", Target: "util", ShapSamples: MaxShapSamples + 1},
	} {
		if _, err := r.Create(sp); err == nil {
			t.Fatalf("out-of-range spec accepted: %+v", sp)
		}
	}
}

func TestAddReadyAndDefault(t *testing.T) {
	r := New()
	name, err := r.AddReady(Spec{Scenario: "web", Model: "rf", Target: "util"}, &core.Pipeline{}, time.Now())
	if err != nil || name != "web/rf/util" {
		t.Fatalf("AddReady: %q, %v", name, err)
	}
	if r.DefaultName() != "web/rf/util" {
		t.Fatalf("default %q", r.DefaultName())
	}
	if _, err := r.AddReady(Spec{Scenario: "web", Model: "rf", Target: "util"}, &core.Pipeline{}, time.Now()); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate AddReady: %v", err)
	}
	name2, err := r.AddReady(Spec{Name: "alt", Scenario: "nat", Model: "gbt", Target: "violation"}, &core.Pipeline{}, time.Now())
	if err != nil || name2 != "alt" {
		t.Fatalf("named AddReady: %q, %v", name2, err)
	}
	if err := r.SetDefault("alt"); err != nil || r.DefaultName() != "alt" {
		t.Fatalf("SetDefault: %v, %q", err, r.DefaultName())
	}
	list := r.List()
	if len(list) != 2 || list[0].Spec.Name != "alt" || list[1].Spec.Name != "web/rf/util" {
		t.Fatalf("list %+v", list)
	}
}

// TestConcurrentReadsDuringSwap hammers Lookup/Get/List while a build
// completes; run with -race this guards the hot-swap path.
func TestConcurrentReadsDuringSwap(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{})}
	r := newTestRegistry(g)
	if _, err := r.Create(Spec{Scenario: "web", Model: "rf", Target: "util"}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p, err := r.Lookup("web/rf/util"); err == nil && p == nil {
					t.Error("ready lookup returned nil pipeline")
					return
				}
				r.List()
				_, _ = r.Get("web/rf/util")
			}
		}()
	}
	close(g.release)
	waitDone(t, r, "web/rf/util")
	close(stop)
	wg.Wait()
	if p, err := r.Lookup("web/rf/util"); err != nil || p == nil {
		t.Fatalf("post-swap lookup: %v", err)
	}
}

// TestParseSpecErrorPaths pins every rejection class with a distinguishing
// message: segment-count errors name the expected shape, unknown
// scenario/model/target errors name the offending value.
func TestParseSpecErrorPaths(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "want scenario:model:target"},
		{"web", "want scenario:model:target"},
		{"web:rf", "want scenario:model:target"},
		{"web:rf:util:24:extra", "want scenario:model:target"},
		{"web:rf:util:zero", `bad hours "zero"`},
		{"web:rf:util:-3", `bad hours "-3"`},
		{"web:rf:util:0", `bad hours "0"`},
		{"moon:rf:util", `scenario "moon"`},
		{"web:svm:util", `unknown model "svm"`},
		{"web:rf:loss", `unknown target "loss"`},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) = %q, want it to mention %q", tc.spec, err, tc.want)
		}
	}
	// The nat-edge canonical name resolves too (aliases are not the only
	// spelling).
	if _, err := ParseSpec("nat-edge:rf:util"); err != nil {
		t.Fatalf("canonical scenario name rejected: %v", err)
	}
}

// TestCreateWithRuntimeScenario proves specs resolve against scenarios
// registered after the registry was built — the POST /v1/scenarios path.
func TestCreateWithRuntimeScenario(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{})}
	r := newTestRegistry(g)
	sp := Spec{Scenario: "edge", Model: "linear", Target: "util"}
	if _, err := r.Create(sp); err == nil {
		t.Fatal("unregistered scenario accepted")
	}
	if _, err := r.Scenarios.Register(core.ScenarioSpec{
		Name:    "edge",
		Groups:  []core.GroupSpec{{Name: "fw", Kind: "firewall"}},
		Traffic: core.TrafficSpec{BaseFPS: 1000},
		SLO:     core.SLOSpec{MaxLatencyMs: 2, MaxLossRate: 0.01},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(sp); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	waitDone(t, r, "edge/linear/util")
	if _, err := r.Lookup("edge/linear/util"); err != nil {
		t.Fatal(err)
	}
}

func TestSwapLifecycle(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{})}
	r := newTestRegistry(g)
	if _, err := r.Swap("nope", &core.Pipeline{}, time.Now()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("swap unknown: %v", err)
	}
	if _, err := r.Create(Spec{Scenario: "web", Model: "rf", Target: "util"}); err != nil {
		t.Fatal(err)
	}
	// Training models cannot be swapped.
	if _, err := r.Swap("web/rf/util", &core.Pipeline{}, time.Now()); !errors.Is(err, ErrNotReady) {
		t.Fatalf("swap while training: %v", err)
	}
	close(g.release)
	waitDone(t, r, "web/rf/util")
	old, err := r.Lookup("web/rf/util")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("web/rf/util", nil, time.Now()); err == nil {
		t.Fatal("nil pipeline swap accepted")
	}
	p2 := &core.Pipeline{}
	swapAt := time.Now()
	n, err := r.Swap("web/rf/util", p2, swapAt)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("swap returned retrain count %d, want 1", n)
	}
	got, err := r.Lookup("web/rf/util")
	if err != nil {
		t.Fatal(err)
	}
	if got == old || got != p2 {
		t.Fatal("lookup did not observe the swapped pipeline")
	}
	e, err := r.Get("web/rf/util")
	if err != nil {
		t.Fatal(err)
	}
	if e.Retrains != 1 || !e.ReadyAt.Equal(swapAt) {
		t.Fatalf("entry after swap: retrains=%d readyAt=%v", e.Retrains, e.ReadyAt)
	}
}
