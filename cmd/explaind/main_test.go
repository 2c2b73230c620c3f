package main

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nfvxai/internal/cluster"
	"nfvxai/internal/registry"
	"nfvxai/internal/serve"
	"nfvxai/internal/testutil/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func parse(t *testing.T, args ...string) serve.Config {
	t.Helper()
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return o.cfg
}

// TestFlagsDefaultModel: with no -model, the node trains the pre-v1
// default, web/rf/util over 24 virtual hours at seed 1.
func TestFlagsDefaultModel(t *testing.T) {
	cfg := parse(t)
	want := []registry.Spec{{Name: "web/rf/util", Scenario: "web", Model: "rf", Target: "util", Hours: 24, Seed: 1}}
	if !reflect.DeepEqual(cfg.Models, want) {
		t.Fatalf("models = %+v, want %+v", cfg.Models, want)
	}
	if cfg.CacheMB != 256 || cfg.SyncInterval.Seconds() != 2 || cfg.Store != nil || cfg.Cluster.Nodes != nil {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// TestFlagsBareKind: a bare kind combines with -scenario and -target.
func TestFlagsBareKind(t *testing.T) {
	cfg := parse(t, "-scenario", "nat", "-target", "violation", "-model", "gbt")
	if len(cfg.Models) != 1 || cfg.Models[0].Name != "nat/gbt/violation" || cfg.Models[0].Scenario != "nat" {
		t.Fatalf("models = %+v", cfg.Models)
	}
}

// TestFlagsHoursAndSeed: an explicit :hours survives a different -hours,
// a spec without one takes -hours, and -seed reaches every spec, every
// feed and the ring.
func TestFlagsHoursAndSeed(t *testing.T) {
	cfg := parse(t, "-hours", "6", "-seed", "7",
		"-model", "web:rf:util:2", "-model", "nat:gbt:violation", "-feed", "live:web")
	if len(cfg.Models) != 2 {
		t.Fatalf("models = %+v", cfg.Models)
	}
	if cfg.Models[0].Hours != 2 || cfg.Models[1].Hours != 6 {
		t.Errorf("hours = %g, %g; want 2 (explicit) and 6 (-hours)", cfg.Models[0].Hours, cfg.Models[1].Hours)
	}
	for _, sp := range cfg.Models {
		if sp.Seed != 7 {
			t.Errorf("%s seed = %d, want 7", sp.Name, sp.Seed)
		}
	}
	if cfg.Feeds[0].Seed != 7 || cfg.Cluster.Seed != 7 {
		t.Errorf("feed seed %d, ring seed %d; want 7", cfg.Feeds[0].Seed, cfg.Cluster.Seed)
	}
}

// TestFlagsFeeds: -feed accepts name:scenario (the feed's default rate)
// and name:scenario:rate, and refuses a bad rate and a wrong part count.
func TestFlagsFeeds(t *testing.T) {
	cfg := parse(t, "-feed", "live:web", "-feed", "fast:nat:120")
	want := []serve.FeedRequest{
		{Name: "live", Scenario: "web", Seed: 1},
		{Name: "fast", Scenario: "nat", Seed: 1, Rate: 120},
	}
	if !reflect.DeepEqual(cfg.Feeds, want) {
		t.Fatalf("feeds = %+v, want %+v", cfg.Feeds, want)
	}
	for _, bad := range []string{"live", "live:web:60:extra", "live:web:x", "live:web:0", "live:web:-1", "live:web:NaN"} {
		if _, err := parseFlags([]string{"-feed", bad}, io.Discard); err == nil {
			t.Errorf("-feed %q accepted", bad)
		}
	}
}

// TestFlagsPeers: -peers becomes the ring's membership, -node-id its
// self, and a malformed list is an error reported on stderr.
func TestFlagsPeers(t *testing.T) {
	cfg := parse(t, "-node-id", "a", "-replication", "3", "-peers", "a=http://h1:8081,b=http://h2:8081/")
	want := []cluster.Node{{ID: "a", URL: "http://h1:8081"}, {ID: "b", URL: "http://h2:8081"}}
	if !reflect.DeepEqual(cfg.Cluster.Nodes, want) || cfg.Cluster.Self != "a" || cfg.Cluster.Replication != 3 {
		t.Fatalf("cluster = %+v", cfg.Cluster)
	}
	for _, bad := range []string{"a", "=http://h1", "a=", ","} {
		var stderr strings.Builder
		_, err := parseFlags([]string{"-node-id", "a", "-peers", bad}, &stderr)
		if err == nil || !strings.Contains(err.Error(), "cluster:") || !strings.Contains(stderr.String(), err.Error()) {
			t.Errorf("-peers %q: err = %v, stderr %q; want a cluster parse error, reported", bad, err, stderr.String())
		}
	}
}

// TestFlagsBadSpecs: a -model that does not parse and an unknown flag
// are errors.
func TestFlagsBadSpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "web:svm:util"},
		{"-model", "web:rf:util:x"},
		{"-scenario", "moon", "-model", "rf"},
		{"-bogus"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}

// TestRefusedRunCreatesNoStore: a command line that Check refuses fails
// with ErrConfig before -store is opened, so it leaves no store directory
// behind. Each carries an unbuildable first model (a thousandth of a
// virtual hour holds no data), so a refusal that came after training
// would surface as the build's error instead. A command line Check
// accepts opens the store on disk and boots on it.
func TestRefusedRunCreatesNoStore(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-tier2", "-cache-mb", "0"},
		{"-peers", "a=http://127.0.0.1:1"},
		{"-node-id", "z", "-peers", "a=http://127.0.0.1:1"},
		{"-node-id", "a", "-peers-file", filepath.Join(t.TempDir(), "members.json")},
		{"-feed", "live:web:100000"},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		o, err := parseFlags(append(args, "-store", dir, "-model", "web:cart:util:0.0001"), io.Discard)
		if err != nil {
			t.Fatalf("parseFlags(%q): %v", args, err)
		}
		if n, err := openNode(o); !errors.Is(err, serve.ErrConfig) {
			if n != nil {
				n.Close()
			}
			t.Fatalf("%q: err = %v, want ErrConfig", args, err)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%q: refused, but the store directory exists (stat: %v)", args, err)
		}
	}

	dir := filepath.Join(t.TempDir(), "store")
	o, err := parseFlags([]string{"-store", dir, "-cache-tier2", "-model", "web:linear:util:1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	n, err := openNode(o)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if keys, err := filepath.Glob(filepath.Join(dir, "artifacts", "*")); err != nil || len(keys) != 1 {
		t.Fatalf("store artifacts = %q (%v), want the trained model's", keys, err)
	}
}
