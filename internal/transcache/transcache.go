// Package transcache is the daemon's content-addressed persistent
// translation cache: optimized TCG IR blocks keyed by (image fingerprint,
// block PC, tier), journaled to disk as checksummed JSONL so repeat
// traffic skips the frontend and optimizer entirely. The cache stores IR
// rather than host code because emitted code is position-dependent (branch
// displacements are relative to the code-cache base); the IR is the
// expensive, position-independent artifact.
//
// Crash-safety is the same discipline as campaign results files
// (internal/journal): every append is flushed through before Store
// returns, a reopen drops the torn final line, and the file is truncated
// back to its valid prefix before new entries are appended. On top of the
// framing, every entry carries an FNV-64a checksum over its canonical
// JSON; an entry whose checksum does not verify on load is skipped and
// counted, so a corrupt journal degrades to retranslation instead of
// poisoning execution. faults.SiteCacheCorrupt injects exactly that
// corruption to prove the path.
package transcache

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

// Fingerprint content-addresses a guest image: the first 16 hex digits of
// the SHA-256 of its serialized form. Two byte-identical images share
// cached translations regardless of how they were submitted.
func Fingerprint(img *guestimg.Image) string {
	sum := sha256.Sum256(img.Encode())
	return fmt.Sprintf("%x", sum[:8])
}

// Entry is one journaled cache line.
type Entry struct {
	// Image identifies the guest image (and any translation-affecting
	// config the caller folds in — the daemon uses fingerprint/variant).
	Image string `json:"image"`
	// PC is the guest PC the block was translated from.
	PC uint64 `json:"pc"`
	// Tier is the selfheal tier the block was optimized at.
	Tier selfheal.Tier `json:"tier"`
	// IR is the post-optimization TCG block.
	IR *tcg.Block `json:"ir"`
	// Sum is the FNV-64a checksum (hex) of the entry's canonical JSON
	// with Sum itself cleared. Verified on load.
	Sum string `json:"sum"`
}

// checksum computes e's checksum over its canonical JSON with Sum cleared.
func checksum(e Entry) (string, error) {
	e.Sum = ""
	raw, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

type key struct {
	image string
	pc    uint64
	tier  selfheal.Tier
}

// Cache is a persistent translation cache. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[key]*tcg.Block
	f       *os.File
	w       *journal.Writer
	inj     *faults.Injector

	hits      *obs.Counter
	misses    *obs.Counter
	stores    *obs.Counter
	corrupt   *obs.Counter
	loaded    *obs.Counter
	entriesGa *obs.Gauge
}

// Options configures Open.
type Options struct {
	// Obs is the parent scope; the cache registers its metrics under a
	// "transcache" child. Nil disables instrumentation.
	Obs *obs.Scope
	// Injector arms faults.SiteCacheCorrupt (corrupt the journaled
	// checksum of the Nth store). Nil injects nothing.
	Injector *faults.Injector
}

// Stats is a point-in-time summary of cache activity.
type Stats struct {
	// Entries is the live entry count.
	Entries int
	// Loaded counts entries recovered from the journal at Open.
	Loaded int
	// CorruptSkipped counts journal entries dropped at Open because
	// their checksum or structure did not verify.
	CorruptSkipped int
	// Hits and Misses count Load outcomes (including ForImage views).
	Hits, Misses uint64
	// Stores counts accepted (non-duplicate) Store calls.
	Stores uint64
}

// Open opens (creating if absent) the journal at path and replays it into
// memory. Entries that fail structural decode or checksum verification
// are skipped and counted; the file is truncated back to its last valid
// line so the journal heals on reopen rather than accreting damage.
func Open(path string, opts Options) (*Cache, error) {
	sc := opts.Obs.Child("transcache")
	if sc == nil {
		// A private scope keeps Stats() working without instrumentation.
		sc = obs.NewScope("transcache")
	}
	c := &Cache{
		entries:   make(map[key]*tcg.Block),
		inj:       opts.Injector,
		hits:      sc.Counter("hits"),
		misses:    sc.Counter("misses"),
		stores:    sc.Counter("stores"),
		corrupt:   sc.Counter("corrupt_skipped"),
		loaded:    sc.Counter("loaded"),
		entriesGa: sc.Gauge("entries"),
	}

	// OpenAppend heals the tail: a torn fragment is dropped so appends start
	// on a clean line boundary. Corrupt-but-complete lines stay (they are
	// inert and rewriting history is not worth the complexity).
	f, err := journal.OpenAppend(path, func(line []byte) error {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			// Structurally broken but newline-terminated: real damage,
			// not a tear. Checksummed entries are independently
			// verifiable, so skip it rather than abandoning the rest.
			c.corrupt.Inc()
			return nil
		}
		want, err := checksum(e)
		if err != nil || e.Sum != want || e.IR == nil {
			c.corrupt.Inc()
			return nil
		}
		c.entries[key{e.Image, e.PC, e.Tier}] = e.IR
		c.loaded.Inc()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("transcache: replaying %s: %w", path, err)
	}
	c.f = f
	c.w = journal.NewWriter(f)
	c.entriesGa.Set(int64(len(c.entries)))
	return c, nil
}

// Load returns a clone of the cached block for (image, pc, tier), or
// (nil, false) on miss. The clone keeps callers from mutating the cache's
// copy (the backend appends no insts, but translators own their blocks).
func (c *Cache) Load(image string, pc uint64, tier selfheal.Tier) (*tcg.Block, bool) {
	c.mu.Lock()
	blk, ok := c.entries[key{image, pc, tier}]
	c.mu.Unlock()
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return blk.Clone(), true
}

// Store journals and caches blk for (image, pc, tier). Duplicate keys are
// ignored (first write wins — translation is deterministic per key, so
// later copies carry no new information). Journal write failures leave
// the in-memory entry in place: the cache degrades to session-local.
func (c *Cache) Store(image string, pc uint64, tier selfheal.Tier, blk *tcg.Block) error {
	if blk == nil {
		return nil
	}
	k := key{image, pc, tier}
	cl := blk.Clone()

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup {
		return nil
	}
	c.entries[k] = cl
	c.stores.Inc()
	c.entriesGa.Set(int64(len(c.entries)))

	e := Entry{Image: image, PC: pc, Tier: tier, IR: cl}
	sum, err := checksum(e)
	if err != nil {
		return err
	}
	e.Sum = sum
	if t := c.inj.Hit(faults.SiteCacheCorrupt); t != nil {
		// Corrupt the journaled checksum (the in-memory copy stays
		// good): this entry must be detected and dropped on reopen.
		e.Sum = "deadbeef" + sum[8:]
	}
	if c.w == nil {
		return nil
	}
	return c.w.Encode(e)
}

// Stats returns a point-in-time activity summary.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Entries:        n,
		Loaded:         int(c.loaded.Load()),
		CorruptSkipped: int(c.corrupt.Load()),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Stores:         c.stores.Load(),
	}
}

// Close syncs and closes the journal. The in-memory cache stays usable
// (further Stores become session-local no-ops on the journal side).
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	c.w = nil
	return err
}

// ImageCache is a single-image view of a Cache, implementing
// core.TranslationCache for one run. It pins the image key so the
// runtime's per-block lookups need no image plumbing.
type ImageCache struct {
	c     *Cache
	image string

	mu           sync.Mutex
	hits, misses uint64
}

// ForImage returns a view of c scoped to image (typically
// "fingerprint/variant": cached IR depends on the translation variant,
// not just the guest bytes).
func (c *Cache) ForImage(image string) *ImageCache {
	return &ImageCache{c: c, image: image}
}

// LoadBlock implements core.TranslationCache.
func (v *ImageCache) LoadBlock(pc uint64, tier selfheal.Tier) (*tcg.Block, bool) {
	blk, ok := v.c.Load(v.image, pc, tier)
	v.mu.Lock()
	if ok {
		v.hits++
	} else {
		v.misses++
	}
	v.mu.Unlock()
	return blk, ok
}

// StoreBlock implements core.TranslationCache. Journal errors are
// swallowed: a failed persist must not fail the translation that
// produced the block.
func (v *ImageCache) StoreBlock(pc uint64, tier selfheal.Tier, blk *tcg.Block) {
	_ = v.c.Store(v.image, pc, tier, blk)
}

// Counts returns this view's hit/miss totals.
func (v *ImageCache) Counts() (hits, misses uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.hits, v.misses
}
