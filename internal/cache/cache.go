// Package cache provides the in-process memoization stores threaded
// through the solve stack: a SolveCache keyed by captured CNF
// formulas (SAT/UNSAT verdicts plus models for feasibility and
// pair-check queries) and a generic Store keyed by canonical word
// vectors (window-level patch functions, QBF feasibility outcomes).
//
// Both stores key by an FNV-1a hash but never trust it alone: a hash
// match is screened by a full-content comparison before a hit is
// served, mirroring the cec.Sweep bucket discipline, so a 64-bit
// collision costs one extra comparison instead of a wrong verdict.
// Collisions screened out this way are counted and surfaced through
// eco.Stats and /metrics — an unverified hit is impossible by
// construction.
//
// Eviction is FIFO and doubly bounded: by entry count and by a
// retained-word budget, so a long-running daemon caching large
// formulas does not grow without bound.
package cache

import (
	"sync"

	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
)

// FNV-1a constants (the same pair cec.Sweep uses for its signature
// buckets).
const (
	fnvOffset uint64 = 1469598103934665603
	fnvPrime  uint64 = 1099511628211
)

// HashWords returns the FNV-1a hash of a canonical key vector.
func HashWords(words []uint64) uint64 {
	h := fnvOffset
	for _, w := range words {
		for i := 0; i < 64; i += 8 {
			h ^= (w >> uint(i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// wordsEqual is the collision screen: full content comparison.
func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Stats is a point-in-time snapshot of one store's counters.
type Stats struct {
	Hits       int64
	Misses     int64
	Collisions int64 // hash matches rejected by the content screen
	Evictions  int64
	Entries    int
	Words      int64 // retained key/value words, for the budget
}

// add merges o into s (the umbrella Cache sums its stores).
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Collisions += o.Collisions
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Words += o.Words
}

// perEntryWords sizes the word budget: maxEntries entries of this
// average retained size. Large formulas evict more aggressively.
const perEntryWords = 2048

// entry is one Store record. dead marks FIFO-evicted entries still
// waiting to be compacted out of their bucket.
type entry struct {
	hash uint64
	key  []uint64
	val  any
	dead bool
}

// Store is a bounded, mutex-guarded map from canonical []uint64 keys
// to opaque values. Safe for concurrent use.
type Store struct {
	mu         sync.Mutex
	maxEntries int
	maxWords   int64
	buckets    map[uint64][]*entry
	fifo       []*entry
	head       int // fifo[:head] already evicted
	words      int64
	hits       int64
	misses     int64
	collisions int64
	evictions  int64
}

// NewStore builds a store retaining up to maxEntries entries
// (default 4096 when <= 0).
func NewStore(maxEntries int) *Store {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &Store{
		maxEntries: maxEntries,
		maxWords:   int64(maxEntries) * perEntryWords,
		buckets:    make(map[uint64][]*entry),
	}
}

// Lookup returns the value cached under key, whether it was found,
// and how many hash collisions the content screen rejected during the
// probe.
func (s *Store) Lookup(key []uint64) (any, bool, int) {
	h := HashWords(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	coll := 0
	for _, e := range s.buckets[h] {
		if e.dead {
			continue
		}
		if wordsEqual(e.key, key) {
			s.hits++
			s.collisions += int64(coll)
			return e.val, true, coll
		}
		coll++
	}
	s.misses++
	s.collisions += int64(coll)
	return nil, false, coll
}

// Insert caches val under key. The first insertion of a key wins;
// re-inserting an equal key is a no-op, so concurrent producers of
// the same entry stay deterministic. The store takes ownership of key.
func (s *Store) Insert(key []uint64, val any) {
	h := HashWords(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.buckets[h] {
		if !e.dead && wordsEqual(e.key, key) {
			return
		}
	}
	e := &entry{hash: h, key: key, val: val}
	s.buckets[h] = append(s.buckets[h], e)
	s.fifo = append(s.fifo, e)
	s.words += int64(len(key))
	s.evictLocked()
}

// evictLocked drops the oldest entries while over either bound.
func (s *Store) evictLocked() {
	for len(s.fifo)-s.head > s.maxEntries || s.words > s.maxWords {
		if s.head >= len(s.fifo) {
			return
		}
		e := s.fifo[s.head]
		s.head++
		e.dead = true
		s.words -= int64(len(e.key))
		s.removeFromBucketLocked(e)
		s.evictions++
	}
	// Compact the fifo prefix once it dominates the slice.
	if s.head > 64 && s.head*2 > len(s.fifo) {
		s.fifo = append([]*entry(nil), s.fifo[s.head:]...)
		s.head = 0
	}
}

func (s *Store) removeFromBucketLocked(e *entry) {
	b := s.buckets[e.hash]
	for i, x := range b {
		if x == e {
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
			break
		}
	}
	if len(b) == 0 {
		delete(s.buckets, e.hash)
	} else {
		s.buckets[e.hash] = b
	}
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:       s.hits,
		Misses:     s.misses,
		Collisions: s.collisions,
		Evictions:  s.evictions,
		Entries:    len(s.fifo) - s.head,
		Words:      s.words,
	}
}

// Verdict is a memoized SAT outcome. Model is indexed by capture
// variable and is present exactly when Status is Sat, so a hit can
// reconstruct counterexamples through the literals handed out during
// capture. Unknown verdicts are never cached (a budget expiry is not
// a fact about the formula).
type Verdict struct {
	Status sat.Status
	Model  []bool
}

// LitTrue reports the model value of a capture literal.
func (v Verdict) LitTrue(l sat.Lit) bool {
	return v.Model[int(l.Var())] != l.Sign()
}

// solveEntry is one SolveCache record. The captured formula itself is
// the key, so keying by it is zero-copy, and Formula.Equal is the
// collision screen.
type solveEntry struct {
	hash    uint64
	f       *cnf.Formula
	assumps []sat.Lit
	v       Verdict
	dead    bool
}

// SolveCache memoizes SAT verdicts of captured formulas plus
// assumptions. Safe for concurrent use.
type SolveCache struct {
	mu         sync.Mutex
	maxEntries int
	maxWords   int64
	buckets    map[uint64][]*solveEntry
	fifo       []*solveEntry
	head       int
	words      int64
	hits       int64
	misses     int64
	collisions int64
	evictions  int64
}

// NewSolveCache builds a solve cache retaining up to maxEntries
// verdicts (default 4096 when <= 0).
func NewSolveCache(maxEntries int) *SolveCache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &SolveCache{
		maxEntries: maxEntries,
		maxWords:   int64(maxEntries) * perEntryWords,
		buckets:    make(map[uint64][]*solveEntry),
	}
}

func assumpsEqual(a, b []sat.Lit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entryWords estimates the retained size of one verdict.
func entryWords(f *cnf.Formula, assumps []sat.Lit, v Verdict) int64 {
	return int64(f.Words() + len(assumps) + (len(v.Model)+7)/8)
}

// Lookup returns the verdict cached for (f, assumps), whether one was
// found, and the number of collisions the content screen rejected.
func (c *SolveCache) Lookup(f *cnf.Formula, assumps []sat.Lit) (Verdict, bool, int) {
	h := f.Hash(assumps)
	c.mu.Lock()
	defer c.mu.Unlock()
	coll := 0
	for _, e := range c.buckets[h] {
		if e.dead {
			continue
		}
		if e.f.Equal(f) && assumpsEqual(e.assumps, assumps) {
			c.hits++
			c.collisions += int64(coll)
			return e.v, true, coll
		}
		coll++
	}
	c.misses++
	c.collisions += int64(coll)
	return Verdict{}, false, coll
}

// Insert caches a verdict. Unknown verdicts are dropped, a Sat
// verdict must carry its model, and the first insertion of a formula
// wins. The cache takes ownership of f and assumps.
func (c *SolveCache) Insert(f *cnf.Formula, assumps []sat.Lit, v Verdict) {
	if v.Status == sat.Unknown {
		return
	}
	if v.Status == sat.Sat && len(v.Model) < f.NumVars() {
		return // incomplete model: a hit could not reconstruct literals
	}
	h := f.Hash(assumps)
	c.mu.Lock()
	for _, e := range c.buckets[h] {
		if !e.dead && e.f.Equal(f) && assumpsEqual(e.assumps, assumps) {
			c.mu.Unlock()
			return
		}
	}
	e := &solveEntry{hash: h, f: f, assumps: assumps, v: v}
	c.buckets[h] = append(c.buckets[h], e)
	c.fifo = append(c.fifo, e)
	c.words += entryWords(f, assumps, v)
	c.evictLocked()
	c.mu.Unlock()
}

func (c *SolveCache) evictLocked() {
	for len(c.fifo)-c.head > c.maxEntries || c.words > c.maxWords {
		if c.head >= len(c.fifo) {
			break
		}
		e := c.fifo[c.head]
		c.head++
		e.dead = true
		c.words -= entryWords(e.f, e.assumps, e.v)
		b := c.buckets[e.hash]
		for i, x := range b {
			if x == e {
				b[i] = b[len(b)-1]
				b = b[:len(b)-1]
				break
			}
		}
		if len(b) == 0 {
			delete(c.buckets, e.hash)
		} else {
			c.buckets[e.hash] = b
		}
		c.evictions++
	}
	if c.head > 64 && c.head*2 > len(c.fifo) {
		c.fifo = append([]*solveEntry(nil), c.fifo[c.head:]...)
		c.head = 0
	}
}

// Stats snapshots the cache's counters.
func (c *SolveCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Collisions: c.collisions,
		Evictions:  c.evictions,
		Entries:    len(c.fifo) - c.head,
		Words:      c.words,
	}
}

// Cache is the umbrella handed to the engine: one solve cache (CEC
// pair checks, cofactor feasibility) and one window store (per-target
// patch functions, QBF feasibility outcomes). A single Cache may be
// shared by many concurrent solves — the ecod daemon hands every job
// the same one.
type Cache struct {
	Solve  *SolveCache
	Window *Store
}

// New builds a cache bounding each store to entries records
// (default 4096 when <= 0).
func New(entries int) *Cache {
	return &Cache{Solve: NewSolveCache(entries), Window: NewStore(entries)}
}

// Stats sums the snapshots of both stores.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	var s Stats
	if c.Solve != nil {
		s.add(c.Solve.Stats())
	}
	if c.Window != nil {
		s.add(c.Window.Stats())
	}
	return s
}
