package xcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"nfvxai/internal/wire"
	"nfvxai/internal/xai"
)

// Store is the persistence backend for the optional second cache tier.
// It is the blob subset of the registry's object-store surface —
// registry.BlobBackend satisfies it structurally — and the name is
// deliberate: the lockedcall analyzer flags any method call on a Store
// while a mutex is held, which is exactly the invariant the shards must
// keep (Store I/O only in the lock-free flight path).
//
// Get returns a not-found error for absent keys; the cache treats every
// Get error as a miss and every Put error as a dropped write (counted,
// never fatal) — tier 2 is an accelerator, not a source of truth.
type Store interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
}

// tier2Key places entries under a per-digest prefix so an object-store
// operator can list or expire one artifact's explanations; the leaf is a
// hash of the full canonical key, keeping names flat and filesystem-safe.
func tier2Key(k Key) string {
	sum := sha256.Sum256([]byte(k.String()))
	return "xcache/" + k.Digest + "/" + hex.EncodeToString(sum[:])[:40]
}

func (c *Cache) tier2Get(k Key) (xai.Attribution, bool) {
	data, err := c.tier2.Get(tier2Key(k))
	if err != nil {
		return xai.Attribution{}, false
	}
	attr, err := decodeAttribution(data)
	if err != nil {
		c.t2errors.Add(1)
		return xai.Attribution{}, false
	}
	c.t2hits.Add(1)
	return attr, true
}

// tier2Put persists one cacheable entry. It runs synchronously in the
// leader after the computation: a blob write is noise next to the
// sampling work a miss just paid for, and the synchronous form keeps the
// no-goroutine leak discipline for free. Errors are counted and dropped.
func (c *Cache) tier2Put(k Key, attr xai.Attribution) {
	if c.tier2 == nil {
		return
	}
	if err := c.tier2.Put(tier2Key(k), encodeAttribution(attr)); err != nil {
		c.t2errors.Add(1)
		return
	}
	c.t2puts.Add(1)
}

// attrMagic/attrVersion head every tier-2 blob so foreign bytes fail
// loudly instead of decoding into garbage attributions.
const (
	attrMagic   = 0x7841 // "xA"
	attrVersion = 1
)

// encodeAttribution serializes an attribution (including names and the
// anytime diagnostics) in the repository's versioned wire format.
func encodeAttribution(attr xai.Attribution) []byte {
	w := &wire.Writer{}
	w.U16(attrMagic)
	w.U8(attrVersion)
	w.F64s(attr.Phi)
	w.F64(attr.Base)
	w.F64(attr.Value)
	w.Strings(attr.Names)
	w.Bool(attr.Diag != nil)
	if attr.Diag != nil {
		w.Bool(attr.Diag.Converged)
		w.Int(attr.Diag.SamplesUsed)
		w.Int(attr.Diag.Blocks)
		w.F64s(attr.Diag.CIHalf)
	}
	return w.Bytes()
}

func decodeAttribution(data []byte) (xai.Attribution, error) {
	r := wire.NewReader(data)
	if m := r.U16(); m != attrMagic {
		return xai.Attribution{}, fmt.Errorf("xcache: bad tier-2 magic %#x", m)
	}
	if v := r.U8(); v != attrVersion {
		return xai.Attribution{}, fmt.Errorf("xcache: unsupported tier-2 version %d", v)
	}
	var attr xai.Attribution
	attr.Phi = r.F64s()
	attr.Base = r.F64()
	attr.Value = r.F64()
	attr.Names = r.Strings()
	if r.Bool() {
		d := &xai.Diag{}
		d.Converged = r.Bool()
		d.SamplesUsed = r.Int()
		d.Blocks = r.Int()
		d.CIHalf = r.F64s()
		attr.Diag = d
	}
	if err := r.Err(); err != nil {
		return xai.Attribution{}, fmt.Errorf("xcache: tier-2 decode: %w", err)
	}
	return attr, nil
}
