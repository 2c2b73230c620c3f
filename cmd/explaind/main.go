// Command explaind serves a registry of trained NFV predictors with their
// explanations over the versioned HTTP API (see internal/serve and API.md).
// Each -model flag names one scenario:model:target[:hours] combination;
// the flag repeats, so one process hosts many deployments concurrently:
//
//	explaind -addr :8080 -model web:rf:util -model nat:gbt:violation:6 -feed live:web
//
// The first spec trains synchronously before the listener starts and
// becomes the default model behind the legacy unversioned endpoints
// (override with -default); the rest train asynchronously in the
// background and hot-swap in when ready — exactly like models added at
// runtime via POST /v1/models.
//
// v1 endpoints:
//
//	GET  /v1/models                    GET  /v1/models/{name}
//	POST /v1/models                    GET  /v1/models/{name}/schema
//	POST /v1/models/{name}/predict     GET  /v1/models/{name}/importance
//	POST /v1/models/{name}/explain     POST /v1/models/{name}/whatif
//	GET  /v1/models/{name}/explainers  POST /v1/models/{name}/jobs
//	GET  /v1/models/{name}/stream      (SSE over a feed)
//	GET  /v1/jobs  /v1/jobs/{id}       DELETE /v1/jobs/{id}
//	GET/POST /v1/scenarios             GET /v1/scenarios/{name}
//	GET/POST /v1/feeds                 GET/DELETE /v1/feeds/{name}
//	POST /v1/feeds/{name}/records      POST /v1/feeds/{name}/attach
//	GET  /v1/models/{name}/artifact    POST /v1/models/import
//	GET/POST /v1/experiments           GET /v1/experiments/{id}
//
// Explain requests may select any registered explanation method per
// request ("method" + "params" in the body; see API.md); expensive global
// explanations (global-importance, pdp-grid, surrogate-tree,
// cleverhans-audit) and streaming retrains run asynchronously through the
// jobs API with progress, results and cancellation.
//
// Each -feed name:scenario[:rate] flag starts a live simulated telemetry
// feed at boot, equivalent to POST /v1/feeds; models attach to feeds for
// online drift monitoring via POST /v1/feeds/{name}/attach.
//
// With -store DIR the process is restartable: trained (and retrained)
// pipelines persist as content-addressed artifacts under DIR, and the
// next boot warm-starts them from disk — bit-identical predictions, no
// retraining. Model artifacts also move between processes over HTTP via
// GET /v1/models/{name}/artifact and POST /v1/models/import, and
// POST /v1/experiments runs declarative scenario×model×method sweeps
// whose result matrices persist in the store. If the initial training of
// any -model flag fails (synchronous or background), explaind logs the
// cause and exits non-zero instead of serving a permanently failed
// model.
//
// With -node-id and -peers (or -peers-file), several explaind processes
// sharing one -store form a serving cluster: a seeded consistent-hash
// ring assigns each model to -replication owner nodes, any node proxies
// /v1/models/{name}/* requests to the owner (falling back to its own
// synced copy when every owner is down), and a manifest-watch loop
// (-sync-interval) pulls models trained or retrained on other nodes out
// of the shared store. /healthz reports ring ownership, peer liveness
// and sync lag; every response names the answering node in X-Served-By
// and carries an X-Request-Id for cross-node tracing:
//
//	explaind -addr :8081 -node-id a -peers "a=http://h1:8081,b=http://h2:8081,c=http://h3:8081" -store /shared
//
// The process shuts down gracefully: SIGINT/SIGTERM stop the listener
// (draining in-flight requests with a timeout), then cancel running jobs
// and stop feed goroutines.
//
// Legacy aliases onto the default model: GET /healthz /schema /importance;
// POST /predict /explain /whatif.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/dataset"
	"nfvxai/internal/feed"
	"nfvxai/internal/registry"
	"nfvxai/internal/sched"
	"nfvxai/internal/serve"
	"nfvxai/internal/xai/xcache"
)

// stringList collects repeated -model / -feed flags.
type stringList []string

func (l *stringList) String() string { return fmt.Sprint(*l) }

func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}

// shutdownTimeout bounds how long in-flight requests may drain after a
// termination signal before the listener is torn down anyway.
const shutdownTimeout = 10 * time.Second

func main() {
	var raw, rawFeeds stringList
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		defName  = flag.String("default", "", "model name the legacy endpoints alias to (default: first -model)")
		hours    = flag.Float64("hours", 24, "virtual hours of training telemetry for specs without :hours")
		seed     = flag.Int64("seed", 1, "seed")
		scenario = flag.String("scenario", "web", "scenario for bare-kind -model flags (builtin: web | nat)")
		target   = flag.String("target", "util", "target for bare-kind -model flags (util | latency | violation)")
		storeDir = flag.String("store", "", "artifact store directory: warm-start previously trained models "+
			"from it and persist every trained/retrained model into it")
		budgetMs = flag.Int("budget-ms", 0, "default latency budget (ms) for explain/whatif/importance requests "+
			"that carry none; 0 = unbudgeted. Per-request budget_ms / X-Budget-Ms override it.")
		maxInflight = flag.Int("max-inflight", 0, "per-model concurrent explain/whatif/importance limit "+
			"(0 = GOMAXPROCS); excess requests queue briefly, then shed with 503 + Retry-After")
		nodeID = flag.String("node-id", "", "this node's id in a serving cluster; required with -peers/-peers-file, "+
			"also reported standalone in /healthz and X-Served-By")
		peers = flag.String("peers", "", "static cluster membership as id=url,id=url,... (must include this node); "+
			"enables consistent-hash routing of /v1/models/{name}/* to shard owners")
		peersFile = flag.String("peers-file", "", "JSON [{\"id\":..,\"url\":..},...] membership file re-read every probe "+
			"tick; alternative to -peers for rolling membership changes")
		replication  = flag.Int("replication", 0, "shard owners per model on the hash ring (default 2, clamped to fleet size)")
		syncInterval = flag.Duration("sync-interval", 2*time.Second, "manifest-watch period: how often this node pulls "+
			"models trained elsewhere from the shared -store (0 disables; needs -store)")
		cacheMB = flag.Int("cache-mb", 256, "explanation result cache budget (MiB of in-process entries); "+
			"0 disables caching entirely (no X-Cache header, /v1/cachez reports disabled)")
		cacheTTL = flag.Duration("cache-ttl", 0, "max age of a cached explanation (0 = entries live until "+
			"evicted by byte pressure or their artifact digest is swapped out)")
		cacheTier2 = flag.Bool("cache-tier2", false, "persist hot cache entries under -store (DIR/xcache) so a "+
			"restarted or newly joined node serves explanations computed by the previous process or the fleet; needs -store")
		schedWorkers = flag.Int("sched-workers", 0, "shared kernel worker-pool size (0 = GOMAXPROCS); "+
			"sizes batch predict, ensemble sharding, the MLP forward pass and xai.ExplainBatch "+
			"(serving batch explains fan out behind the server's GOMAXPROCS-slot gate instead)")
	)
	flag.Var(&raw, "model", "scenario:model:target[:hours] spec; repeat to serve several models. "+
		"A bare kind (e.g. just \"rf\") combines with -scenario/-target, matching the pre-v1 CLI.")
	flag.Var(&rawFeeds, "feed", "name:scenario[:rate] live feed to start at boot; repeat for several feeds. "+
		"rate is virtual seconds per wall second (default 60).")
	flag.Parse()

	// Kernel plane: size the shared worker pool before any model trains,
	// so every computation in the process runs on the configured pool.
	if *schedWorkers > 0 {
		sched.Configure(*schedWorkers, false)
	}
	log.Printf("kernel plane: sched workers %d", sched.Default().Workers())

	if len(raw) == 0 {
		raw = stringList{"rf"}
	}
	var specs []registry.Spec
	for _, s := range raw {
		// Bare kinds keep the pre-v1 single-model CLI working:
		// explaind -scenario web -model rf -target util.
		if !strings.Contains(s, ":") {
			s = fmt.Sprintf("%s:%s:%s", *scenario, s, *target)
		}
		sp, err := registry.ParseSpec(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// ParseSpec leaves Hours 0 when the spec carries no :hours suffix,
		// so an explicit ":24" survives a different global -hours.
		if sp.Hours == 0 {
			sp.Hours = *hours
		}
		sp.Seed = *seed
		specs = append(specs, sp)
	}

	reg := registry.New()
	reg.OnStoreError = func(err error) { log.Printf("store: %v", err) }

	// Durable artifact plane: warm-start previously trained pipelines from
	// the store, then persist everything trained from here on.
	var storeBlob registry.BlobBackend
	if *storeDir != "" {
		st, err := registry.OpenFSStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		storeBlob = st.Backend()
		// Retry/backoff + circuit breaker in front of the filesystem: a
		// transient I/O failure retries with jitter instead of dropping a
		// manifest write, and a dead disk trips the breaker (visible in
		// /readyz) rather than hanging every persist.
		reg.UseStore(registry.NewStore(registry.NewRetryBlob(st.Backend(), registry.RetryConfig{})))
		rep, err := reg.WarmStart(time.Now())
		if err != nil {
			log.Fatal(err)
		}
		for _, re := range rep.Errors {
			log.Printf("store: restore %s: %v (skipped)", re.Name, re.Err)
		}
		if len(rep.Models) > 0 || rep.Scenarios > 0 {
			log.Printf("warm start: restored %d model(s) %v and %d scenario(s) from %s",
				len(rep.Models), rep.Models, rep.Scenarios, *storeDir)
		}
	}

	// Explanation result cache: content-addressed (entries keyed by the
	// artifact digest, never the model name) with single-flight
	// coalescing of concurrent identical requests. -cache-tier2 spills
	// hot entries into the artifact store's backend (DIR/xcache/<digest>/)
	// so a restarted process — or a freshly joined cluster node sharing
	// the store — serves explanations the previous process or the rest of
	// the fleet already computed. Tier 2 needs no retry layer: its
	// failures are counted misses.
	if *cacheMB > 0 {
		ccfg := xcache.Config{MaxBytes: int64(*cacheMB) << 20, TTL: *cacheTTL}
		if *cacheTier2 {
			if storeBlob == nil {
				fmt.Fprintln(os.Stderr, "explaind: -cache-tier2 requires -store")
				os.Exit(2)
			}
			ccfg.Tier2 = storeBlob
		}
		reg.UseExplainCache(xcache.New(ccfg))
		log.Printf("explanation cache: %d MiB, ttl %v, tier2 %v", *cacheMB, *cacheTTL, *cacheTier2)
	}

	// Track the initial background builds: a -model flag whose training
	// fails must terminate the process (non-zero) instead of leaving a
	// permanently failed entry behind a healthy-looking listener.
	builds := make(chan string, 16)
	reg.NotifyBuilds(builds)
	errc := make(chan error, 1)
	initial := map[string]bool{}

	// Train the first (default) model synchronously so the process comes up
	// serving; the rest build in the background like POST /v1/models would.
	// Models restored from the store skip retraining entirely.
	first := specs[0]
	if _, err := reg.Get(first.Name); err == nil {
		log.Printf("%s already in registry (warm start); skipping synchronous training", first.Name)
	} else {
		log.Printf("training %s (%s, %.0fh) synchronously...", first.Name, first.Model, first.Hours)
		p, err := reg.BuildPipeline(first)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := reg.AddReady(first, p, time.Now()); err != nil {
			log.Fatal(err)
		}
		if p.Train.Task == dataset.Regression {
			rep := p.EvaluateRegression()
			log.Printf("%s: test MAE %.4f RMSE %.4f R2 %.4f", first.Name, rep.MAE, rep.RMSE, rep.R2)
		} else {
			rep := p.EvaluateClassification()
			log.Printf("%s: test acc %.4f F1 %.4f AUC %.4f", first.Name, rep.Accuracy, rep.F1, rep.AUC)
		}
	}

	for _, sp := range specs[1:] {
		if _, err := reg.Get(sp.Name); err == nil {
			log.Printf("%s already in registry (warm start); skipping training", sp.Name)
			continue
		}
		if _, err := reg.Create(sp); err != nil {
			log.Fatal(err)
		}
		initial[sp.Name] = true
		log.Printf("training %s in the background (status: GET /v1/models/%s)", sp.Name, sp.Name)
	}
	// Watch build completions forever (runtime POST /v1/models builds
	// flow through the same channel and must stay drained); an initial
	// -model spec failing its build aborts the process through errc.
	go func() {
		for name := range builds {
			if !initial[name] {
				continue
			}
			e, err := reg.Get(name)
			if err == nil && e.Status == registry.StatusFailed {
				select {
				case errc <- fmt.Errorf("initial training of %s failed: %s", name, e.Err):
				default:
				}
			}
		}
	}()
	if *defName != "" {
		if err := reg.SetDefault(*defName); err != nil {
			log.Fatal(err)
		}
	}

	s := serve.NewServer(reg)
	s.DefaultBudgetMs = *budgetMs
	s.MaxInflight = *maxInflight
	s.NodeID = *nodeID
	s.Logf = log.Printf
	defer s.Close()

	// Serving cluster: -peers/-peers-file turn this process into one shard
	// of a fleet — a consistent-hash ring routes /v1/models/{name}/* to
	// owners, liveness probes demote dead peers, and the manifest-watch
	// syncer pulls models trained on other nodes out of the shared store.
	if *peers != "" || *peersFile != "" {
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "explaind: -peers/-peers-file require -node-id")
			os.Exit(2)
		}
		ccfg := cluster.Config{
			Self:        *nodeID,
			Replication: *replication,
			Seed:        uint64(*seed),
			MembersFile: *peersFile,
		}
		if *peers != "" {
			nodes, err := cluster.ParsePeers(*peers)
			if err != nil {
				log.Fatal(err)
			}
			ccfg.Nodes = nodes
		}
		c, err := cluster.New(ccfg)
		if err != nil {
			log.Fatal(err)
		}
		c.Start()
		defer c.Stop()
		s.Cluster = c
		var ids []string
		for _, n := range c.Peers() {
			ids = append(ids, n.ID)
		}
		log.Printf("cluster: node %s joined ring of %d (replication %d): %s",
			*nodeID, len(ids), c.Replication(), strings.Join(ids, " "))
		if *storeDir == "" {
			log.Printf("cluster: WARNING: no -store; models trained on other nodes will not sync here")
		}
	}
	if *storeDir != "" && *syncInterval > 0 {
		syn := &cluster.Syncer{
			Reg:      reg,
			Interval: *syncInterval,
			OnError:  func(err error) { log.Printf("sync: %v", err) },
		}
		syn.Start()
		defer syn.Stop()
		s.Syncer = syn
	}

	// Boot-time feeds: -feed name:scenario[:rate], the CLI twin of
	// POST /v1/feeds.
	for _, spec := range rawFeeds {
		name, scen, rate, err := parseFeedSpec(spec)
		if err != nil {
			log.Fatal(err)
		}
		sp, err := reg.Scenarios.Lookup(scen)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := s.Hub().Open(name, sp, feed.Options{Simulate: true, Seed: *seed, Rate: rate}); err != nil {
			log.Fatal(err)
		}
		log.Printf("feed %s streaming scenario %s (rate %.0fx)", name, sp.Name, rate)
	}

	// ReadHeaderTimeout bounds a slow-loris client's grip on a connection;
	// IdleTimeout reaps idle keep-alives. No blanket write timeout: SSE
	// streams (/v1/models/{name}/stream) are long-lived by design, and
	// request work is bounded by latency budgets instead.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		if err := srv.ListenAndServe(); err != nil {
			select {
			case errc <- err:
			default:
			}
		}
	}()
	log.Printf("explaind listening on %s with %d model(s), default %s", *addr, reg.Len(), reg.DefaultName())

	// Graceful shutdown: a first SIGINT/SIGTERM drains the listener with a
	// timeout, then Close (deferred) cancels jobs and stops feeds. A second
	// signal aborts the drain immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down (waiting up to %s for in-flight requests)...", shutdownTimeout)
		// Close the streaming plane first: open SSE streams only end when
		// their feed closes, so closing feeds up front lets Shutdown's
		// drain finish promptly instead of always burning the full
		// timeout. Running jobs are cancelled at the same time.
		s.Close()
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shutdown: %v", err)
		}
	}
	log.Printf("explaind stopped")
}

// parseFeedSpec parses "name:scenario[:rate]".
func parseFeedSpec(s string) (name, scenario string, rate float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", "", 0, fmt.Errorf("feed spec %q: want name:scenario[:rate]", s)
	}
	rate = 60
	if len(parts) == 3 {
		rate, err = strconv.ParseFloat(parts[2], 64)
		if err != nil || rate <= 0 {
			return "", "", 0, fmt.Errorf("feed spec %q: bad rate %q", s, parts[2])
		}
	}
	return parts[0], parts[1], rate, nil
}
