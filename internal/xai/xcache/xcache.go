// Package xcache is the content-addressed explanation result cache: a
// sharded in-process LRU (tier 1) with byte-size accounting and TTL,
// fronted by a single-flight coalescer (flight.go) and optionally backed
// by a persistent blob tier (tier2.go) so warm-started or newly joined
// cluster nodes serve hits for explanations computed elsewhere.
//
// Keys are content-addressed: artifact digest × method name × the
// canonical xai.Options fingerprint × instance hash. A cache entry is
// keyed by artifact digest — never by model name — so retrain, hot-swap
// and import need no flush: a new artifact has a new digest and simply
// misses. DropDigest exists only to bound memory by releasing entries a
// swapped-out pipeline can never serve again.
//
// Attributions returned by Get/Do are shared across callers; treat them
// as immutable.
package xcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nfvxai/internal/xai"
)

// Key identifies one explanation result. All four fields derive from
// content, never from mutable names: Digest is the pipeline artifact
// digest, Method the registry method name, Opts the normalized
// xai.Options fingerprint (Options.Key()), Instance the hash of the
// explained instance (InstanceHash).
type Key struct {
	Digest   string
	Method   string
	Opts     string
	Instance string
}

// String is the canonical flat form the shards and the flight table are
// keyed by. Digest, Method and Instance never contain '|', and Opts is
// a fixed-arity fingerprint, so the concatenation is injective.
func (k Key) String() string {
	return k.Digest + "|" + k.Method + "|" + k.Opts + "|" + k.Instance
}

// InstanceHash fingerprints a feature vector by its exact float64 bit
// patterns (little-endian), so two instances hash equal iff every
// feature is bit-identical — the same condition under which a seeded
// explainer reproduces the same attribution.
func InstanceHash(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Cacheable reports whether an attribution may be stored: a full
// computation always, a progressive/anytime partial only when it
// converged — a deadline-truncated estimate must not be served to
// callers who asked with a laxer (or no) budget.
func Cacheable(attr xai.Attribution) bool {
	return attr.Diag == nil || attr.Diag.Converged
}

// Config sizes a Cache.
type Config struct {
	// MaxBytes bounds tier-1 memory (accounted per entrySize; default
	// 64 MiB, split evenly across shards).
	MaxBytes int64
	// TTL expires entries this long after insertion; <= 0 disables
	// expiry (content-addressed keys never go stale, TTL only bounds
	// how long a cold fleet keeps dead working sets around).
	TTL time.Duration
	// Tier2, when non-nil, persists cacheable entries and is consulted
	// on tier-1 misses. See Store in tier2.go.
	Tier2 Store
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

const (
	numShards = 8
	// entryOverhead approximates the per-entry bookkeeping bytes (entry
	// struct, map slot, list element) added to the payload size.
	entryOverhead = 192
	defaultMax    = 64 << 20
)

// Cache is the two-tier explanation result cache. All methods are safe
// for concurrent use.
type Cache struct {
	shards   [numShards]shard
	perShard int64
	ttl      time.Duration
	now      func() time.Time

	flightMu sync.Mutex
	flight   map[string]*call

	tier2 Store

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evicted   atomic.Int64
	expired   atomic.Int64
	entries   atomic.Int64
	bytes     atomic.Int64
	t2hits    atomic.Int64
	t2puts    atomic.Int64
	t2errors  atomic.Int64

	digMu sync.Mutex
	dig   map[string]*digestCounters
}

type shard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recent
	bytes int64
}

type entry struct {
	key     string
	digest  string
	attr    xai.Attribution
	size    int64
	expires time.Time // zero = no TTL
}

type digestCounters struct {
	hits, misses, coalesced, evicted atomic.Int64
	entries, bytes                   atomic.Int64
}

// New builds a Cache from cfg.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMax
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Cache{
		perShard: (cfg.MaxBytes + numShards - 1) / numShards,
		ttl:      cfg.TTL,
		now:      cfg.Now,
		tier2:    cfg.Tier2,
		flight:   make(map[string]*call),
		dig:      make(map[string]*digestCounters),
	}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

func (c *Cache) shardFor(ks string) *shard {
	h := fnv.New32a()
	h.Write([]byte(ks))
	return &c.shards[h.Sum32()%numShards]
}

func (c *Cache) digCounters(digest string) *digestCounters {
	c.digMu.Lock()
	dc, ok := c.dig[digest]
	if !ok {
		dc = &digestCounters{}
		c.dig[digest] = dc
	}
	c.digMu.Unlock()
	return dc
}

// entrySize is the byte accounting for one cached attribution: fixed
// overhead plus the float payload plus the key. Shared Names backing is
// deliberately not charged (every entry of a pipeline aliases the same
// slice).
func entrySize(ks string, attr xai.Attribution) int64 {
	n := int64(entryOverhead + len(ks) + 8*len(attr.Phi))
	if attr.Diag != nil {
		n += 48 + int64(8*len(attr.Diag.CIHalf))
	}
	return n
}

// Get returns the cached attribution for k, expiring it lazily when its
// TTL has passed. A miss here is not counted — the flight path (Do)
// counts one miss per underlying computation, so hits+misses+coalesced
// tallies requests, and misses alone tallies computes.
func (c *Cache) Get(k Key) (xai.Attribution, bool) {
	ks := k.String()
	s := c.shardFor(ks)
	s.mu.Lock()
	el, ok := s.items[ks]
	if !ok {
		s.mu.Unlock()
		return xai.Attribution{}, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		s.removeLocked(el, e)
		s.mu.Unlock()
		c.expired.Add(1)
		c.entryGone(e, false)
		return xai.Attribution{}, false
	}
	s.lru.MoveToFront(el)
	s.mu.Unlock()
	c.hits.Add(1)
	c.digCounters(e.digest).hits.Add(1)
	return e.attr, true
}

// Put inserts an attribution, evicting the shard's least-recently-used
// entries while it is over its byte budget. Callers should gate on
// Cacheable; Put itself stores whatever it is given.
func (c *Cache) Put(k Key, attr xai.Attribution) {
	ks := k.String()
	e := &entry{key: ks, digest: k.Digest, attr: attr, size: entrySize(ks, attr)}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	s := c.shardFor(ks)
	var dropped []*entry
	s.mu.Lock()
	if el, ok := s.items[ks]; ok {
		old := el.Value.(*entry)
		s.bytes -= old.size
		el.Value = e
		s.bytes += e.size
		s.lru.MoveToFront(el)
		c.bytes.Add(e.size - old.size)
		c.digCounters(k.Digest).bytes.Add(e.size - old.size)
		s.mu.Unlock()
		return
	}
	s.items[ks] = s.lru.PushFront(e)
	s.bytes += e.size
	for s.bytes > c.perShard && s.lru.Len() > 1 {
		tail := s.lru.Back()
		te := tail.Value.(*entry)
		s.removeLocked(tail, te)
		dropped = append(dropped, te)
	}
	s.mu.Unlock()
	c.entries.Add(1)
	c.bytes.Add(e.size)
	dc := c.digCounters(k.Digest)
	dc.entries.Add(1)
	dc.bytes.Add(e.size)
	for _, te := range dropped {
		c.evicted.Add(1)
		c.entryGone(te, true)
	}
}

// removeLocked unlinks el/e from the shard; stats are settled by the
// caller after the shard lock is released.
func (s *shard) removeLocked(el *list.Element, e *entry) {
	s.lru.Remove(el)
	delete(s.items, e.key)
	s.bytes -= e.size
}

// entryGone settles the gauge (and optionally per-digest eviction)
// counters for an entry removed from its shard.
func (c *Cache) entryGone(e *entry, evicted bool) {
	c.entries.Add(-1)
	c.bytes.Add(-e.size)
	dc := c.digCounters(e.digest)
	dc.entries.Add(-1)
	dc.bytes.Add(-e.size)
	if evicted {
		dc.evicted.Add(1)
	}
}

// DropDigest removes every tier-1 entry keyed by digest and returns how
// many were dropped. Called after a hot-swap retires an artifact: the
// old digest can never be requested again (keys embed the digest), so
// its entries are pure memory waste. Tier-2 entries are left in place —
// they are content-addressed and harmless, and another node may still
// serve the old artifact.
func (c *Cache) DropDigest(digest string) int {
	var dropped []*entry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*entry); e.digest == digest {
				s.removeLocked(el, e)
				dropped = append(dropped, e)
			}
			el = next
		}
		s.mu.Unlock()
	}
	for _, e := range dropped {
		c.entryGone(e, false)
	}
	c.digMu.Lock()
	delete(c.dig, digest)
	c.digMu.Unlock()
	return len(dropped)
}

// Stats is a point-in-time snapshot of the global counters.
type Stats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Coalesced  int64 `json:"coalesced"`
	Evicted    int64 `json:"evicted"`
	Expired    int64 `json:"expired"`
	Entries    int64 `json:"entries"`
	Bytes      int64 `json:"bytes"`
	Tier2Hits  int64 `json:"tier2_hits,omitempty"`
	Tier2Puts  int64 `json:"tier2_puts,omitempty"`
	Tier2Errs  int64 `json:"tier2_errors,omitempty"`
	Tier2      bool  `json:"tier2"`
	MaxBytes   int64 `json:"max_bytes"`
	TTLSeconds int64 `json:"ttl_seconds,omitempty"`
}

// DigestStats is the per-artifact slice of the counters.
type DigestStats struct {
	Digest    string `json:"digest"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Coalesced int64  `json:"coalesced"`
	Evicted   int64  `json:"evicted"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// Stats snapshots the global counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Coalesced:  c.coalesced.Load(),
		Evicted:    c.evicted.Load(),
		Expired:    c.expired.Load(),
		Entries:    c.entries.Load(),
		Bytes:      c.bytes.Load(),
		Tier2Hits:  c.t2hits.Load(),
		Tier2Puts:  c.t2puts.Load(),
		Tier2Errs:  c.t2errors.Load(),
		Tier2:      c.tier2 != nil,
		MaxBytes:   c.perShard * numShards,
		TTLSeconds: int64(c.ttl / time.Second),
	}
}

// DigestStatsFor snapshots one artifact's counters; ok is false when the
// digest has never touched the cache.
func (c *Cache) DigestStatsFor(digest string) (DigestStats, bool) {
	c.digMu.Lock()
	dc, ok := c.dig[digest]
	c.digMu.Unlock()
	if !ok {
		return DigestStats{}, false
	}
	return dc.snapshot(digest), true
}

// PerDigest snapshots every artifact's counters, sorted by digest for
// stable output.
func (c *Cache) PerDigest() []DigestStats {
	c.digMu.Lock()
	out := make([]DigestStats, 0, len(c.dig))
	for d, dc := range c.dig {
		out = append(out, dc.snapshot(d))
	}
	c.digMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

func (dc *digestCounters) snapshot(digest string) DigestStats {
	return DigestStats{
		Digest:    digest,
		Hits:      dc.hits.Load(),
		Misses:    dc.misses.Load(),
		Coalesced: dc.coalesced.Load(),
		Evicted:   dc.evicted.Load(),
		Entries:   dc.entries.Load(),
		Bytes:     dc.bytes.Load(),
	}
}

// Len returns the number of tier-1 entries.
func (c *Cache) Len() int { return int(c.entries.Load()) }
