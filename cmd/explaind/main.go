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
// The v1 endpoints are listed in internal/serve's package documentation
// and specified in API.md.
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
// whose result matrices persist in the store. Contradictory flags exit
// with status 2 before any model trains. If the initial training of any
// -model flag fails (synchronous or background), explaind logs the cause
// and exits non-zero instead of serving a permanently failed model.
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
// The process shuts down gracefully: SIGINT/SIGTERM stop the feeds,
// cancel running jobs and wait for their writes, then drain in-flight
// requests with a timeout.
//
// Legacy aliases onto the default model: GET /healthz /schema /importance;
// POST /predict /explain /whatif.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/registry"
	"nfvxai/internal/sched"
	"nfvxai/internal/serve"
)

// shutdownTimeout bounds how long in-flight requests may drain after a
// termination signal before the listener is torn down anyway.
const shutdownTimeout = 10 * time.Second

// options is explaind's command line: the node's serve.Config, plus what
// main keeps for itself — the listen address, the store directory it
// opens, and the process-wide kernel pool size.
type options struct {
	addr         string
	storeDir     string
	schedWorkers int
	cfg          serve.Config
}

// parseFlags maps the command line onto options. Errors are reported on
// stderr: flag syntax with the usage, as the flag package does, and a
// -model, -feed or -peers value that does not parse on its own.
func parseFlags(args []string, stderr io.Writer) (o options, err error) {
	var (
		models, feeds           []string
		hours                   float64
		seed                    int64
		scenario, target, peers string
	)
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.cfg.Default, "default", "", "model name the legacy endpoints alias to (default: first -model)")
	fs.Float64Var(&hours, "hours", 24, "virtual hours of training telemetry for specs without :hours")
	fs.Int64Var(&seed, "seed", 1, "seed")
	fs.StringVar(&scenario, "scenario", "web", "scenario for bare-kind -model flags (builtin: web | nat)")
	fs.StringVar(&target, "target", "util", "target for bare-kind -model flags (util | latency | violation)")
	fs.StringVar(&o.storeDir, "store", "", "artifact store directory: warm-start previously trained models "+
		"from it and persist every trained/retrained model into it")
	fs.IntVar(&o.cfg.BudgetMs, "budget-ms", 0, "default latency budget (ms) for explain/whatif/importance requests "+
		"that carry none; 0 = unbudgeted. Per-request budget_ms / X-Budget-Ms override it.")
	fs.IntVar(&o.cfg.MaxInflight, "max-inflight", 0, "per-model concurrent explain/whatif/importance limit "+
		"(0 = GOMAXPROCS); excess requests queue briefly, then shed with 503 + Retry-After")
	fs.StringVar(&o.cfg.Cluster.Self, "node-id", "", "this node's id in a serving cluster; required with -peers/-peers-file, "+
		"also reported standalone in /healthz and X-Served-By")
	fs.StringVar(&peers, "peers", "", "static cluster membership as id=url,id=url,... (must include this node); "+
		"enables consistent-hash routing of /v1/models/{name}/* to shard owners")
	fs.StringVar(&o.cfg.Cluster.MembersFile, "peers-file", "", "JSON [{\"id\":..,\"url\":..},...] membership file re-read every probe "+
		"tick; alternative to -peers for rolling membership changes")
	fs.IntVar(&o.cfg.Cluster.Replication, "replication", 0, "shard owners per model on the hash ring (default 2, clamped to fleet size)")
	fs.DurationVar(&o.cfg.SyncInterval, "sync-interval", 2*time.Second, "manifest-watch period: how often this node pulls "+
		"models trained elsewhere from the shared -store (0 disables; needs -store)")
	fs.IntVar(&o.cfg.CacheMB, "cache-mb", 256, "explanation result cache budget (MiB of in-process entries); "+
		"0 disables caching entirely (no X-Cache header, /v1/cachez reports disabled)")
	fs.DurationVar(&o.cfg.CacheTTL, "cache-ttl", 0, "max age of a cached explanation (0 = entries live until "+
		"evicted by byte pressure or their artifact digest is swapped out)")
	fs.BoolVar(&o.cfg.CacheTier2, "cache-tier2", false, "persist hot cache entries under -store (DIR/xcache) so a "+
		"restarted or newly joined node serves explanations computed by the previous process or the fleet; needs -store")
	fs.IntVar(&o.schedWorkers, "sched-workers", 0, "shared kernel worker-pool size (0 = GOMAXPROCS); "+
		"sizes batch predict, ensemble sharding, the MLP forward pass and xai.ExplainBatch "+
		"(serving batch explains fan out behind the server's GOMAXPROCS-slot gate instead)")
	fs.Func("model", "scenario:model:target[:hours] spec; repeat to serve several models. "+
		"A bare kind (e.g. just \"rf\") combines with -scenario/-target, matching the pre-v1 CLI.",
		func(s string) error { models = append(models, s); return nil })
	fs.Func("feed", "name:scenario[:rate] live feed to start at boot; repeat for several feeds. "+
		"rate is virtual seconds per wall second (default 60).",
		func(s string) error { feeds = append(feeds, s); return nil })
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	defer func() {
		if err != nil {
			fmt.Fprintln(stderr, "explaind:", err)
		}
	}()

	if len(models) == 0 {
		models = []string{"rf"}
	}
	for _, s := range models {
		// Bare kinds keep the pre-v1 single-model CLI working:
		// explaind -scenario web -model rf -target util.
		if !strings.Contains(s, ":") {
			s = fmt.Sprintf("%s:%s:%s", scenario, s, target)
		}
		sp, err := registry.ParseSpec(s)
		if err != nil {
			return o, err
		}
		// ParseSpec leaves Hours 0 when the spec carries no :hours suffix,
		// so an explicit ":24" survives a different global -hours.
		if sp.Hours == 0 {
			sp.Hours = hours
		}
		sp.Seed = seed
		o.cfg.Models = append(o.cfg.Models, sp)
	}
	for _, s := range feeds {
		fr, err := parseFeedSpec(s)
		if err != nil {
			return o, err
		}
		fr.Seed = seed
		o.cfg.Feeds = append(o.cfg.Feeds, fr)
	}
	if peers != "" {
		if o.cfg.Cluster.Nodes, err = cluster.ParsePeers(peers); err != nil {
			return o, err
		}
	}
	o.cfg.Cluster.Seed = uint64(seed)
	return o, nil
}

// parseFeedSpec parses "name:scenario[:rate]", the CLI twin of a POST
// /v1/feeds body; without a rate the feed runs at its default.
func parseFeedSpec(s string) (serve.FeedRequest, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return serve.FeedRequest{}, fmt.Errorf("feed spec %q: want name:scenario[:rate]", s)
	}
	fr := serve.FeedRequest{Name: parts[0], Scenario: parts[1]}
	if len(parts) == 3 {
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || !(rate > 0) {
			return serve.FeedRequest{}, fmt.Errorf("feed spec %q: bad rate %q", s, parts[2])
		}
		fr.Rate = rate
	}
	return fr, nil
}

// openNode boots the node main serves. Check runs before -store is
// opened, because opening creates the store's directories and a refused
// command line should leave none behind. Check asks only whether a store
// is set, so a memory bucket stands in for -store there.
func openNode(o options) (*serve.Node, error) {
	pre := o.cfg
	if o.storeDir != "" {
		pre.Store = registry.NewMemBlob()
	}
	if err := pre.Check(); err != nil {
		return nil, err
	}
	if o.storeDir != "" {
		st, err := registry.OpenFSStore(o.storeDir)
		if err != nil {
			return nil, err
		}
		o.cfg.Store = st.Backend()
	}
	return serve.Open(o.cfg)
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	// Kernel plane: size the shared worker pool before any model trains,
	// so every computation in the process runs on the configured pool.
	if o.schedWorkers > 0 {
		sched.Configure(o.schedWorkers, false)
	}
	log.Printf("kernel plane: sched workers %d", sched.Default().Workers())
	n, err := openNode(o)
	if err != nil {
		log.Print(err)
		if errors.Is(err, serve.ErrConfig) {
			os.Exit(2)
		}
		os.Exit(1)
	}

	// ReadHeaderTimeout bounds a slow-loris client's grip on a connection;
	// IdleTimeout reaps idle keep-alives. No blanket write timeout: SSE
	// streams (/v1/models/{name}/stream) are long-lived by design, and
	// request work is bounded by latency budgets instead.
	srv := &http.Server{Handler: n, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		n.Close()
		log.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("explaind listening on %s with %d model(s), default %s", ln.Addr(), n.Registry().Len(), n.Registry().DefaultName())

	// Graceful shutdown: a first SIGINT/SIGTERM closes the node, then
	// drains the listener with a timeout. A second signal aborts the
	// drain immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err = <-errc:
	case err = <-n.Failed():
	case <-ctx.Done():
		stop()
		log.Printf("shutting down (waiting up to %s for in-flight requests)...", shutdownTimeout)
		// Close the node first: open SSE streams only end when their feed
		// closes, so closing feeds up front lets Shutdown's drain finish
		// promptly instead of always burning the full timeout. Running
		// jobs are cancelled and waited for at the same time.
		n.Close()
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shutdown: %v", err)
		}
		log.Printf("explaind stopped")
		return
	}
	// The listener failed or an initial build did: close the node, so
	// running jobs are cancelled and their writes flushed, then exit
	// non-zero.
	n.Close()
	log.Fatal(err)
}
