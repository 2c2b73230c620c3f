package registry

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"
)

func cacheKey(digest string, i int) xcache.Key {
	return xcache.Key{Digest: digest, Method: "kernelshap", Opts: "o", Instance: string(rune('a' + i))}
}

// TestSwapDropsOldDigestEntries pins the swap-time invalidation
// contract: invalidation is structural (the new artifact has a new
// digest and simply misses), but Swap must still release the retired
// digest's in-process entries — they can never be requested again and
// are pure memory waste. Run with -race: readers hammer the cache while
// the swap drops.
func TestSwapDropsOldDigestEntries(t *testing.T) {
	r := New()
	c := xcache.New(xcache.Config{})
	r.UseExplainCache(c)
	if r.ExplainCache() != c {
		t.Fatal("ExplainCache getter")
	}

	oldPipe := &core.Pipeline{}
	if _, err := r.AddReady(Spec{Scenario: "web", Model: "rf", Target: "util"}, oldPipe, time.Now()); err != nil {
		t.Fatal(err)
	}
	oldDigest := oldPipe.ContentDigest() // as the first explain would
	keep := &core.Pipeline{}
	if _, err := r.AddReady(Spec{Scenario: "nat", Model: "rf", Target: "util"}, keep, time.Now()); err != nil {
		t.Fatal(err)
	}
	keepDigest := keep.ContentDigest()

	attr := xai.Attribution{Phi: []float64{1, 2}}
	for i := 0; i < 16; i++ {
		c.Put(cacheKey(oldDigest, i), attr)
		c.Put(cacheKey(keepDigest, i), attr)
	}

	// Concurrent readers across the swap: -race proves the shard locks
	// and the drop path compose.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Get(cacheKey(oldDigest, 3))
					c.Get(cacheKey(keepDigest, 3))
				}
			}
		}()
	}

	newPipe := &core.Pipeline{}
	if _, err := r.Swap("web/rf/util", newPipe, time.Now()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for i := 0; i < 16; i++ {
		if _, ok := c.Get(cacheKey(oldDigest, i)); ok {
			t.Fatalf("entry %d for the retired digest survived the swap", i)
		}
		if _, ok := c.Get(cacheKey(keepDigest, i)); !ok {
			t.Fatalf("entry %d for the untouched model was dropped", i)
		}
	}
	if c.Len() != 16 {
		t.Fatalf("Len = %d, want 16", c.Len())
	}
}

// TestSwapWithoutDigestIsFree: swapping out a pipeline that never served
// a cache-aware explain must not force an artifact serialization just to
// find entries that cannot exist.
func TestSwapWithoutDigestIsFree(t *testing.T) {
	r := New()
	c := xcache.New(xcache.Config{})
	r.UseExplainCache(c)
	p := &core.Pipeline{}
	if _, err := r.AddReady(Spec{Scenario: "web", Model: "rf", Target: "util"}, p, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.DigestIfComputed(); ok {
		t.Fatal("digest must not be computed by registration alone")
	}
	if _, err := r.Swap("web/rf/util", &core.Pipeline{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.DigestIfComputed(); ok {
		t.Fatal("swap must not force the retired pipeline's digest")
	}
}

// TestUseExplainCacheAttachesExisting: attaching a cache after models
// are registered wires every live pipeline, and later additions inherit
// it.
func TestUseExplainCacheAttachesExisting(t *testing.T) {
	r := New()
	p1 := &core.Pipeline{}
	if _, err := r.AddReady(Spec{Scenario: "web", Model: "rf", Target: "util"}, p1, time.Now()); err != nil {
		t.Fatal(err)
	}
	c := xcache.New(xcache.Config{})
	r.UseExplainCache(c)
	if p1.ResultCache != c {
		t.Fatal("existing pipeline not attached")
	}
	p2 := &core.Pipeline{}
	if _, err := r.AddReady(Spec{Scenario: "nat", Model: "rf", Target: "util"}, p2, time.Now()); err != nil {
		t.Fatal(err)
	}
	if p2.ResultCache != c {
		t.Fatal("later pipeline not attached")
	}
}

// TestTier2AcrossRestartOnDisk: with the filesystem store's backend as
// tier 2, a restarted process serves the explanation the previous one
// computed, from DIR/xcache/<digest>/<leaf>.
func TestTier2AcrossRestartOnDisk(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Registry, *xcache.Cache) {
		st, err := OpenFSStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := xcache.New(xcache.Config{Tier2: st.Backend()})
		r := New()
		r.OnStoreError = func(err error) { t.Errorf("store error: %v", err) }
		r.UseStore(st)
		r.UseExplainCache(c)
		return r, c
	}

	rA, cA := boot()
	p := storeTestPipeline(t, core.ModelTree, 1)
	if _, err := rA.AddReady(testSpec("m"), p, time.Now()); err != nil {
		t.Fatal(err)
	}
	x := p.Test.X[0]
	want, _, outcome, err := p.ExplainCached(context.Background(), "", xai.Options{}, x, false)
	if err != nil || outcome != xcache.OutcomeMiss {
		t.Fatalf("first explain: outcome %v err %v", outcome, err)
	}
	if s := cA.Stats(); s.Tier2Puts != 1 {
		t.Fatalf("tier-2 puts = %d, want 1", s.Tier2Puts)
	}

	rB, cB := boot()
	if rep, err := rB.SyncManifest(time.Now()); err != nil || len(rep.Errors) != 0 {
		t.Fatalf("warm start: %v %v", err, rep.Errors)
	}
	pB, err := rB.Lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	got, _, outcome, err := pB.ExplainCached(context.Background(), "", xai.Options{}, x, false)
	if err != nil || outcome != xcache.OutcomeHit {
		t.Fatalf("explain after restart: outcome %v err %v", outcome, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tier-2 round trip: got %+v want %+v", got, want)
	}
	if s := cB.Stats(); s.Tier2Hits != 1 || s.Misses != 0 {
		t.Fatalf("restarted cache stats = %+v, want one tier-2 hit and no miss", s)
	}

	digestDir := filepath.Join(dir, "xcache", pB.ContentDigest())
	entries, err := os.ReadDir(digestDir)
	if err != nil || len(entries) != 1 || !entries[0].Type().IsRegular() || len(entries[0].Name()) != 40 {
		t.Fatalf("%s holds %v (%v), want one 40-hex blob", digestDir, entries, err)
	}
}
