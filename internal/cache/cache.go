// Package cache provides the engine's in-process memoization store: a
// Store keyed by canonical word vectors (window-level patch functions
// and QBF feasibility outcomes, see eco/cache.go).
//
// The store keys by an FNV-1a hash but never trusts it alone: a hash
// match is screened by a full-content comparison before a hit is
// served, mirroring the cec.Sweep bucket discipline, so a 64-bit
// collision costs one extra comparison instead of a wrong verdict.
// Collisions screened out this way are counted and surfaced through
// eco.Stats and /metrics — an unverified hit is impossible by
// construction.
//
// Eviction is FIFO and doubly bounded: by entry count and by a budget
// on retained key words, so a long-running daemon does not grow
// without bound. Values are not counted against the budget.
package cache

import "sync"

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
	Words      int64 // retained key words, for the budget (values uncounted)
}

// perEntryWords sizes the word budget: maxEntries entries of this
// average key length. Long keys (large windows) evict more
// aggressively.
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
