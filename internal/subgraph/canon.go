package subgraph

import "fractal/internal/pattern"

// maxMemo bounds the per-embedding canonicalization memo. An embedding's
// working set is the number of distinct quick patterns one core meets in one
// step, which is small for GPM workloads; a full memo is cleared wholesale.
const maxMemo = 1 << 12

// canonMemo is the two-level canonicalization state of an embedding. The
// quick pattern is the embedding's pattern in its own vertex numbering,
// built in place into qp; its fingerprint, built into fp, keys memo, whose
// entries come from cache. cur holds the result for the current embedding
// state while valid is set; Push and Pop clear valid.
type canonMemo struct {
	qp    pattern.Pattern
	fp    []byte
	memo  map[string]canonEntry
	cache *pattern.CodeCache
	cur   canonEntry
	valid bool
}

type canonEntry struct {
	canon pattern.Canon
	rep   *pattern.Pattern
}

// Canon returns the canonical form of the embedding's pattern and the
// class's shared representative, exactly as cache.CanonicalRep(e.Pattern())
// would, but computed at most once per embedding state and without
// allocating when the quick pattern has been seen before.
//
// The quick pattern is rebuilt in scratch storage owned by the embedding and
// its fingerprint looked up in a bounded per-embedding memo (one per core);
// only a memo miss consults the shared cache. The result is kept until the
// next Push or Pop, so an aggregation's key function, its value function and
// a filter on the same embedding share one computation. The returned Perm is
// shared with the memo and the cache: callers must not mutate it. Switching
// to a different cache discards the memo.
func (e *Embedding) Canon(cache *pattern.CodeCache) (pattern.Canon, *pattern.Pattern) {
	if e.canon == nil {
		e.canon = &canonMemo{}
	}
	m := e.canon
	if m.cache != cache {
		clear(m.memo)
		m.cache, m.valid = cache, false
	}
	if m.valid {
		return m.cur.canon, m.cur.rep
	}
	p := e.patternInto(&m.qp)
	m.fp = p.AppendFingerprint(m.fp[:0])
	ent, ok := m.memo[string(m.fp)]
	if !ok {
		ent.canon, ent.rep = cache.CanonicalRep(p)
		if m.memo == nil {
			m.memo = make(map[string]canonEntry)
		} else if len(m.memo) >= maxMemo {
			clear(m.memo)
		}
		m.memo[string(m.fp)] = ent
	}
	m.cur, m.valid = ent, true
	return ent.canon, ent.rep
}

// invalidateCanon drops the result kept for the previous embedding state.
func (e *Embedding) invalidateCanon() {
	if e.canon != nil {
		e.canon.valid = false
	}
}
