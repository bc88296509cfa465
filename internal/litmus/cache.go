package litmus

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/memmodel"
)

// Fingerprint returns a canonical structural rendering of p: two programs
// have the same fingerprint iff they have the same threads, ops, operands and
// attributes. The program name is deliberately excluded — outcome sets depend
// only on structure, and keying caches by name would make two distinct
// programs that happen to share a name collide.
func (p *Program) Fingerprint() string {
	var b strings.Builder
	for t, ops := range p.Threads {
		if t > 0 {
			b.WriteByte('|')
		}
		appendOpsFingerprint(&b, ops)
	}
	return b.String()
}

func appendOpsFingerprint(b *strings.Builder, ops []Op) {
	for i, op := range ops {
		if i > 0 {
			b.WriteByte(';')
		}
		switch o := op.(type) {
		case Store:
			fmt.Fprintf(b, "st(%s,%d,%s)", o.Loc, o.Val, attrFingerprint(o.Attr))
		case StoreReg:
			fmt.Fprintf(b, "str(%s,%s,%s)", o.Loc, o.Src, attrFingerprint(o.Attr))
		case Load:
			fmt.Fprintf(b, "ld(%s,%s,%s)", o.Dst, o.Loc, attrFingerprint(o.Attr))
		case LoadIdx:
			fmt.Fprintf(b, "ldi(%s,%s,%s,%s,%s)", o.Dst, o.Idx, o.Loc0, o.Loc1, attrFingerprint(o.Attr))
		case StoreIdx:
			fmt.Fprintf(b, "sti(%s,%s,%s,%d,%s)", o.Idx, o.Loc0, o.Loc1, o.Val, attrFingerprint(o.Attr))
		case CAS:
			fmt.Fprintf(b, "cas(%s,%d,%d,%s,%s)", o.Loc, o.Expect, o.New, o.Dst, attrFingerprint(o.Attr))
		case Fence:
			fmt.Fprintf(b, "f(%d)", int(o.K))
		case MovImm:
			fmt.Fprintf(b, "mov(%s,%d)", o.Dst, o.Val)
		case If:
			fmt.Fprintf(b, "if(%s,%t,%d){", o.Reg, o.Eq, o.Val)
			appendOpsFingerprint(b, o.Body)
			b.WriteByte('}')
		default:
			fmt.Fprintf(b, "?%T", op)
		}
	}
}

func attrFingerprint(a Attr) string {
	var b [5]byte
	n := 0
	if a.Acq {
		b[n] = 'a'
		n++
	}
	if a.AcqPC {
		b[n] = 'q'
		n++
	}
	if a.Rel {
		b[n] = 'l'
		n++
	}
	if a.SC {
		b[n] = 's'
		n++
	}
	b[n] = byte('0' + int(a.Class))
	n++
	return string(b[:n])
}

// Cache memoizes outcome sets across repeated enumerations of the same
// program under the same model, as happens in Theorem-1 sweeps (the same
// source program is re-checked against several targets) and in operational
// soundness checks. It is safe for concurrent use: racing callers for one
// key block until the single enumeration finishes, so each (program, model)
// pair is enumerated at most once per cache.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry

	// onEnumerate, when non-nil, is invoked once per actual enumeration
	// (i.e. per cache miss), before the enumeration runs. Test hook.
	onEnumerate func(fingerprint, model string)
}

type cacheKey struct {
	prog  string // Program.Fingerprint()
	model string // memmodel.Model.Name()
}

type cacheEntry struct {
	once sync.Once
	out  OutcomeSet
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// DefaultCache is the process-wide outcome cache used by the mapping and
// opcheck packages and by litmusctl.
var DefaultCache = NewCache()

// outcomes is the memoizing path behind Enumerate(..., WithCache(c)). The
// body of the once.Do never panics (enumerate captures panics), so
// a failed first enumeration memoizes its error rather than silently
// marking the entry done with a nil set; racing callers for the same key
// all observe the same (set, error) pair. A call counts as a cache miss
// when it performed the enumeration itself and a hit otherwise — racing
// callers that block on the once are hits.
func (c *Cache) outcomes(p *Program, m memmodel.Model, opt Options) (OutcomeSet, error) {
	key := cacheKey{prog: p.Fingerprint(), model: m.Name()}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	enumerated := false
	e.once.Do(func() {
		enumerated = true
		if c.onEnumerate != nil {
			c.onEnumerate(key.prog, key.model)
		}
		uncached := opt
		uncached.Cache = nil
		e.out, e.err = enumerate(p, m, uncached)
	})
	sc := opt.Obs.Child("litmus")
	if enumerated {
		sc.Counter("cache.misses").Inc()
	} else {
		sc.Counter("cache.hits").Inc()
	}
	return e.out, e.err
}

// Len reports how many (program, model) pairs the cache holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
