// Open boots one explaind node and Node.Close takes it down: cmd/explaind,
// the examples and the fleet and chaos tests all boot through it, so
// every node is wired the same way.
package serve

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/dataset"
	"nfvxai/internal/feed"
	"nfvxai/internal/registry"
	"nfvxai/internal/xai/xcache"
)

// Config is one node's settings: a field per explaind flag, with the
// ring's and the retry layer's own configurations passed whole. The zero
// Config is a standalone node with no store, result cache or models.
type Config struct {
	Models       []registry.Spec      // -model: the first trains in Open, the rest in the background; stored ones are restored
	Default      string               // -default: the legacy endpoints' model; empty keeps the stored or the first one
	Store        registry.BlobBackend // -store: the artifact bucket, restored at boot and persisted to through a RetryBlob
	Retry        registry.RetryConfig // the RetryBlob's settings
	BudgetMs     int                  // -budget-ms
	MaxInflight  int                  // -max-inflight
	Cluster      cluster.Config       // -node-id (Self), -peers (Nodes), -peers-file, -replication, -seed; a ring needs members
	SyncInterval time.Duration        // -sync-interval: the manifest watch, which runs only with a Store
	CacheMB      int                  // -cache-mb: the result cache's budget; 0 turns it off
	CacheTTL     time.Duration        // -cache-ttl
	CacheTier2   bool                 // -cache-tier2: spill hot cache entries into the bare Store bucket
	Feeds        []FeedRequest        // -feed: feeds opened at boot, as POST /v1/feeds bodies
}

// ErrConfig marks a Config whose settings contradict each other or name
// nothing that exists.
var ErrConfig = errors.New("serve: bad node config")

// Check refuses contradictory settings. Open calls it before it builds
// or starts anything; explaind calls it before it opens -store, so a
// refused command line leaves no store directory behind. It reads only
// whether Store is set, not the bucket. A membership is read as the
// ring reads it (-peers-file included), so a node id outside it is
// refused here too.
func (cfg Config) Check() error {
	clustered := len(cfg.Cluster.Nodes) > 0 || cfg.Cluster.MembersFile != ""
	switch {
	case cfg.CacheTier2 && cfg.Store == nil:
		return fmt.Errorf("%w: -cache-tier2 requires -store", ErrConfig)
	case cfg.CacheTier2 && cfg.CacheMB <= 0:
		return fmt.Errorf("%w: -cache-tier2 requires the cache on (-cache-mb > 0)", ErrConfig)
	case clustered && cfg.Cluster.Self == "":
		return fmt.Errorf("%w: -peers/-peers-file require -node-id", ErrConfig)
	}
	if clustered {
		if _, err := cluster.New(cfg.Cluster); err != nil { // reads the membership, starts nothing
			return fmt.Errorf("%w: %w", ErrConfig, err)
		}
	}
	for _, fr := range cfg.Feeds {
		if err := feed.Check(fr.Name, feed.Options{Rate: fr.Rate}); err != nil {
			return fmt.Errorf("%w: -feed %s: %w", ErrConfig, fr.Name, err)
		}
	}
	return nil
}

// Node is a booted node: its Server plus what Open started around it.
type Node struct {
	*Server
	failed chan error
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// Open boots a node. After refusing a contradictory cfg it lays the store
// chain (bucket → RetryBlob → Store; cache tier 2 takes the bare bucket),
// restores the store with one SyncManifest round on the empty registry,
// attaches the result cache, trains the initial models, sets the default
// and the server's settings and opens the boot feeds. Only the fully
// wired node starts its ring's probe loop and its sync loop.
func Open(cfg Config) (*Node, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	var ring *cluster.Cluster
	if len(cfg.Cluster.Nodes) > 0 || cfg.Cluster.MembersFile != "" {
		var err error
		if ring, err = cluster.New(cfg.Cluster); err != nil { // reads the membership, starts nothing
			return nil, fmt.Errorf("%w: %w", ErrConfig, err)
		}
	}
	reg := registry.New()
	reg.OnStoreError = func(err error) { log.Printf("store: %v", err) }
	if cfg.Store != nil {
		// Retries with jitter ride out a transient I/O failure, and a
		// circuit breaker (visible in /readyz) stops a dead disk from
		// hanging every persist.
		reg.UseStore(registry.NewStore(registry.NewRetryBlob(cfg.Store, cfg.Retry)))
		rep, err := reg.SyncManifest(time.Now())
		if err != nil {
			return nil, err
		}
		for _, re := range rep.Errors {
			log.Printf("store: restore %s: %v (skipped)", re.Name, re.Err)
		}
		if len(rep.Adopted) > 0 || rep.Scenarios > 0 {
			log.Printf("warm start: restored %d model(s) %v and %d scenario(s)", len(rep.Adopted), rep.Adopted, rep.Scenarios)
		}
	}
	for _, fr := range cfg.Feeds { // a feed's scenario may be one the store just restored
		if _, err := reg.Scenarios.Lookup(fr.Scenario); err != nil {
			return nil, fmt.Errorf("%w: -feed %s: %w", ErrConfig, fr.Name, err)
		}
	}
	if cfg.CacheMB > 0 {
		ccfg := xcache.Config{MaxBytes: int64(cfg.CacheMB) << 20, TTL: cfg.CacheTTL}
		if cfg.CacheTier2 {
			ccfg.Tier2 = cfg.Store // tier-2 failures are counted misses: no retry layer
		}
		reg.UseExplainCache(xcache.New(ccfg))
		log.Printf("explanation cache: %d MiB, ttl %v, tier2 %v", cfg.CacheMB, cfg.CacheTTL, cfg.CacheTier2)
	}
	background, err := trainInitial(reg, cfg.Models)
	if err != nil {
		return nil, err
	}
	if cfg.Default != "" { // after Create: the default may name a background build
		if err := reg.SetDefault(cfg.Default); err != nil {
			return nil, fmt.Errorf("%w: -default: %w", ErrConfig, err)
		}
	}

	s := NewServer(reg)
	s.DefaultBudgetMs, s.MaxInflight, s.NodeID = cfg.BudgetMs, cfg.MaxInflight, cfg.Cluster.Self
	for _, fr := range cfg.Feeds {
		f, err := s.openFeed(fr)
		if err != nil {
			s.Close()
			return nil, err
		}
		log.Printf("feed %s streaming scenario %s (rate %.0fx)", f.Name(), f.Spec().Name, f.Options().Rate)
	}
	s.ring = ring
	if ring != nil {
		var ids []string
		for _, p := range ring.Peers() {
			ids = append(ids, p.ID)
		}
		log.Printf("cluster: node %s joined ring of %d (replication %d): %s",
			cfg.Cluster.Self, len(ids), ring.Replication(), strings.Join(ids, " "))
		if cfg.Store == nil {
			log.Printf("cluster: WARNING: no -store; models trained on other nodes will not sync here")
		}
		ring.Start()
	}
	if cfg.Store != nil && cfg.SyncInterval > 0 {
		s.syncer = &cluster.Syncer{Reg: reg, Interval: cfg.SyncInterval,
			OnError: func(err error) { log.Printf("sync: %v", err) }}
		s.syncer.Start()
	}
	n := &Node{Server: s, failed: make(chan error, 1), done: make(chan struct{})}
	if len(background) > 0 {
		n.wg.Add(1)
		go n.watchBuilds(reg, background)
	}
	return n, nil
}

// trainInitial trains the first spec here and starts the rest in the
// background, skipping those the registry already holds. It returns the
// background builds' names.
func trainInitial(reg *registry.Registry, specs []registry.Spec) ([]string, error) {
	var background []string
	for i, sp := range specs {
		sp = sp.WithDefaults()
		switch _, err := reg.Get(sp.Name); {
		case err == nil:
			log.Printf("%s already in registry; skipping training", sp.Name)
		case i > 0:
			if _, err := reg.Create(sp); err != nil {
				return nil, err
			}
			background = append(background, sp.Name)
			log.Printf("training %s in the background (status: GET /v1/models/%s)", sp.Name, sp.Name)
		default:
			log.Printf("training %s (%s, %gh) synchronously...", sp.Name, sp.Model, sp.Hours)
			p, err := reg.BuildPipeline(sp)
			if err != nil {
				return nil, err
			}
			if _, err := reg.AddReady(sp, p, time.Now()); err != nil {
				return nil, err
			}
			if p.Train.Task == dataset.Regression {
				rep := p.EvaluateRegression()
				log.Printf("%s: test MAE %.4f RMSE %.4f R2 %.4f", sp.Name, rep.MAE, rep.RMSE, rep.R2)
			} else {
				rep := p.EvaluateClassification()
				log.Printf("%s: test acc %.4f F1 %.4f AUC %.4f", sp.Name, rep.Accuracy, rep.F1, rep.AUC)
			}
		}
	}
	return background, nil
}

// watchBuilds waits for the background builds in turn and reports the
// first failed one on Failed. It stops waiting when the node closes.
func (n *Node) watchBuilds(reg *registry.Registry, names []string) {
	defer n.wg.Done()
	for _, name := range names {
		built, _ := reg.Built(name) // registered by Create, so never ErrNotFound
		select {
		case <-built:
		case <-n.done:
			return
		}
		if e, err := reg.Get(name); err == nil && e.Status == registry.StatusFailed {
			n.failed <- fmt.Errorf("initial training of %s failed: %s", name, e.Err)
			return
		}
	}
}

// Failed delivers the first initial background build that failed:
// explaind exits rather than serve a model that can never be ready.
func (n *Node) Failed() <-chan error { return n.failed }

// Cluster returns the node's ring, or nil for a standalone node.
func (n *Node) Cluster() *cluster.Cluster { return n.ring }

// Close stops the server's planes (Server.Close), then the sync and probe
// loops; a background build still training runs on, unreported.
func (n *Node) Close() {
	n.once.Do(func() {
		n.Server.Close()
		close(n.done)
		n.wg.Wait()
		if n.syncer != nil {
			n.syncer.Stop()
		}
		if n.ring != nil {
			n.ring.Stop()
		}
	})
}
