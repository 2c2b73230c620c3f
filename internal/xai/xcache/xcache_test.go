package xcache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfvxai/internal/xai"
)

func testKey(digest string, i int) Key {
	return Key{Digest: digest, Method: "kernelshap", Opts: "opts", Instance: fmt.Sprintf("inst%d", i)}
}

func testAttr(v float64) xai.Attribution {
	return xai.Attribution{Names: []string{"a", "b"}, Phi: []float64{v, -v}, Base: 1, Value: 1 + v - v}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{})
	k := testKey("d1", 0)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache must miss")
	}
	want := testAttr(2)
	c.Put(k, want)
	got, ok := c.Get(k)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v, %v; want %+v", got, ok, want)
	}
	// The instance hash distinguishes bit-different inputs.
	if InstanceHash([]float64{1, 2}) == InstanceHash([]float64{1, 2 + 1e-15}) {
		t.Fatal("InstanceHash must separate bit-different instances")
	}
	if InstanceHash([]float64{1, 2}) != InstanceHash([]float64{1, 2}) {
		t.Fatal("InstanceHash must be deterministic")
	}
	// NaN has a fixed bit pattern per math.NaN(): equal to itself here.
	if InstanceHash([]float64{math.NaN()}) != InstanceHash([]float64{math.NaN()}) {
		t.Fatal("InstanceHash of identical NaN bits must agree")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	c := New(Config{TTL: time.Minute, Now: clock})
	k := testKey("d1", 0)
	c.Put(k, testAttr(1))
	if _, ok := c.Get(k); !ok {
		t.Fatal("fresh entry must hit")
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, ok := c.Get(k); ok {
		t.Fatal("expired entry must miss")
	}
	st := c.Stats()
	if st.Expired != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after expiry: %+v", st)
	}
}

// TestEvictionUnderBytePressure: a tiny byte budget forces LRU eviction;
// the gauges stay consistent and recently used entries survive.
func TestEvictionUnderBytePressure(t *testing.T) {
	// Each entry is ~entryOverhead+key+2 floats ≈ 250 bytes; 8 shards at
	// 1 KiB each hold only a few entries per shard.
	c := New(Config{MaxBytes: 8 << 10})
	for i := 0; i < 500; i++ {
		c.Put(testKey("d1", i), testAttr(float64(i)))
	}
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatal("byte pressure must evict")
	}
	if st.Entries+st.Evicted != 500 {
		t.Fatalf("entries %d + evicted %d != 500", st.Entries, st.Evicted)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d above budget %d", st.Bytes, st.MaxBytes)
	}
	if c.Len() == 0 {
		t.Fatal("eviction must not empty the cache")
	}
	ds, ok := c.DigestStatsFor("d1")
	if !ok || ds.Entries != st.Entries || ds.Evicted != st.Evicted {
		t.Fatalf("digest stats out of sync: %+v vs %+v", ds, st)
	}
}

func TestDropDigest(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 10; i++ {
		c.Put(testKey("old", i), testAttr(float64(i)))
		c.Put(testKey("new", i), testAttr(float64(i)))
	}
	if n := c.DropDigest("old"); n != 10 {
		t.Fatalf("DropDigest = %d, want 10", n)
	}
	if _, ok := c.Get(testKey("old", 3)); ok {
		t.Fatal("dropped digest must miss")
	}
	if _, ok := c.Get(testKey("new", 3)); !ok {
		t.Fatal("surviving digest must hit")
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	if _, ok := c.DigestStatsFor("old"); ok {
		t.Fatal("dropped digest stats must be gone")
	}
}

// TestCoalesce64: 64 concurrent identical requests run exactly one
// computation — one miss, 63 coalesced joins.
func TestCoalesce64(t *testing.T) {
	c := New(Config{})
	k := testKey("d1", 0)
	var computes atomic.Int64
	started := make(chan struct{})
	compute := func(context.Context) (xai.Attribution, error) {
		<-started // hold every follower in the flight until all 64 arrived
		computes.Add(1)
		return testAttr(7), nil
	}
	var wg sync.WaitGroup
	var hits, misses, joins atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			attr, outcome, err := c.Do(context.Background(), k, compute)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if attr.Phi[0] != 7 {
				t.Errorf("Phi[0] = %v", attr.Phi[0])
			}
			switch outcome {
			case OutcomeHit:
				hits.Add(1)
			case OutcomeMiss:
				misses.Add(1)
			case OutcomeCoalesced:
				joins.Add(1)
			}
		}()
	}
	// Let goroutines pile into the flight, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(started)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want exactly 1", got)
	}
	if misses.Load() != 1 {
		t.Fatalf("miss outcomes = %d, want 1", misses.Load())
	}
	if hits.Load()+joins.Load() != 63 {
		t.Fatalf("hit %d + coalesced %d outcomes != 63", hits.Load(), joins.Load())
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("stats.Misses = %d, want 1 (misses must count computes)", st.Misses)
	}
	if st.Hits+st.Coalesced != 63 {
		t.Fatalf("stats hits %d + coalesced %d != 63", st.Hits, st.Coalesced)
	}
}

// TestFollowerRetriesAfterLeaderTimeout: a leader failing with its own
// context error must not poison followers whose budgets are still live —
// one of them retries as the new leader.
func TestFollowerRetriesAfterLeaderTimeout(t *testing.T) {
	c := New(Config{})
	k := testKey("d1", 0)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inFlight := make(chan struct{})
	var calls atomic.Int64
	compute := func(ctx context.Context) (xai.Attribution, error) {
		if calls.Add(1) == 1 {
			close(inFlight)
			<-ctx.Done()
			return xai.Attribution{}, ctx.Err()
		}
		return testAttr(5), nil
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, k, compute)
		leaderDone <- err
	}()
	<-inFlight
	followerDone := make(chan error, 1)
	go func() {
		attr, _, err := c.Do(context.Background(), k, compute)
		if err == nil && attr.Phi[0] != 5 {
			err = fmt.Errorf("follower got %v", attr.Phi)
		}
		followerDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the follower join the flight
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("follower must retry and succeed: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("compute calls = %d, want 2 (canceled leader + retrying follower)", got)
	}
}

// TestPartialResultsNotCached: an unconverged anytime attribution fans
// out to the flight but never lands in the cache.
func TestPartialResultsNotCached(t *testing.T) {
	c := New(Config{})
	k := testKey("d1", 0)
	partial := testAttr(3)
	partial.Diag = &xai.Diag{Converged: false, SamplesUsed: 128, Blocks: 1}
	var computes atomic.Int64
	compute := func(context.Context) (xai.Attribution, error) {
		computes.Add(1)
		return partial, nil
	}
	for i := 0; i < 3; i++ {
		if _, outcome, err := c.Do(context.Background(), k, compute); err != nil || outcome != OutcomeMiss {
			t.Fatalf("call %d: outcome %v err %v", i, outcome, err)
		}
	}
	if computes.Load() != 3 {
		t.Fatalf("unconverged results must recompute every time, got %d computes", computes.Load())
	}
	converged := partial
	converged.Diag = &xai.Diag{Converged: true, SamplesUsed: 1024, Blocks: 8}
	if !Cacheable(converged) || Cacheable(partial) {
		t.Fatal("Cacheable must track Diag.Converged")
	}
}

type memStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func (s *memStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string][]byte{}
	}
	s.m[key] = append([]byte(nil), data...)
	s.puts++
	return nil
}

func (s *memStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	if !ok {
		return nil, errors.New("not found")
	}
	return data, nil
}

// TestTier2SharedAcrossCaches: a second cache (a restarted node, or a
// peer sharing the object store) serves a tier-2 hit without computing.
func TestTier2SharedAcrossCaches(t *testing.T) {
	st := &memStore{}
	a := New(Config{Tier2: st})
	k := testKey("d1", 0)
	want := testAttr(9)
	want.Diag = &xai.Diag{Converged: true, SamplesUsed: 2048, Blocks: 16, CIHalf: []float64{0.01, 0.02}}
	if _, outcome, err := a.Do(context.Background(), k, func(context.Context) (xai.Attribution, error) {
		return want, nil
	}); err != nil || outcome != OutcomeMiss {
		t.Fatalf("first Do: outcome %v err %v", outcome, err)
	}
	if s := a.Stats(); s.Tier2Puts != 1 {
		t.Fatalf("tier2 puts = %d", s.Tier2Puts)
	}

	b := New(Config{Tier2: st}) // fresh node, same bucket
	attr, outcome, err := b.Do(context.Background(), k, func(context.Context) (xai.Attribution, error) {
		t.Error("tier-2 hit must not compute")
		return xai.Attribution{}, nil
	})
	if err != nil || outcome != OutcomeHit {
		t.Fatalf("tier-2 Do: outcome %v err %v", outcome, err)
	}
	if !reflect.DeepEqual(attr, want) {
		t.Fatalf("tier-2 round trip: got %+v want %+v", attr, want)
	}
	s := b.Stats()
	if s.Tier2Hits != 1 || s.Misses != 0 || s.Hits != 1 {
		t.Fatalf("tier-2 stats: %+v", s)
	}
	// The promoted entry now hits tier 1 directly.
	if _, ok := b.Get(k); !ok {
		t.Fatal("tier-2 hit must promote into tier 1")
	}
}

func TestTier2CorruptBlobIsMiss(t *testing.T) {
	st := &memStore{}
	k := testKey("d1", 0)
	if err := st.Put(tier2Key(k), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Tier2: st})
	var computes atomic.Int64
	attr, outcome, err := c.Do(context.Background(), k, func(context.Context) (xai.Attribution, error) {
		computes.Add(1)
		return testAttr(4), nil
	})
	if err != nil || outcome != OutcomeMiss || computes.Load() != 1 {
		t.Fatalf("corrupt tier-2 entry must fall through to compute: %v %v %d", outcome, err, computes.Load())
	}
	if attr.Phi[0] != 4 {
		t.Fatalf("Phi = %v", attr.Phi)
	}
	if s := c.Stats(); s.Tier2Errs != 1 {
		t.Fatalf("tier-2 errors = %d, want 1", s.Tier2Errs)
	}
}

func TestEncodeDecodeVersionGuard(t *testing.T) {
	data := encodeAttribution(testAttr(1))
	if _, err := decodeAttribution(data); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF // clobber the magic
	if _, err := decodeAttribution(bad); err == nil {
		t.Fatal("bad magic must fail decode")
	}
	if _, err := decodeAttribution(data[:3]); err == nil {
		t.Fatal("truncated blob must fail decode")
	}
}
