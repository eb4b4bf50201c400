package cache

import (
	"fmt"
	"testing"
)

func TestStoreLookupInsert(t *testing.T) {
	s := NewStore(16)
	key := []uint64{1, 2, 3}
	if _, ok, _ := s.Lookup(key); ok {
		t.Fatal("hit on empty store")
	}
	s.Insert(append([]uint64(nil), key...), "v1")
	v, ok, coll := s.Lookup(key)
	if !ok || v.(string) != "v1" || coll != 0 {
		t.Fatalf("lookup = (%v, %v, %d)", v, ok, coll)
	}
	// First insertion wins; an equal key re-insert is a no-op.
	s.Insert(append([]uint64(nil), key...), "v2")
	if v, _, _ := s.Lookup(key); v.(string) != "v1" {
		t.Fatalf("re-insert overwrote: %v", v)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreCollisionScreen forces a 64-bit hash collision by injecting
// an entry whose recorded hash equals another key's hash but whose
// content differs: the content screen must reject it, count it, and
// still find the real entry behind it.
func TestStoreCollisionScreen(t *testing.T) {
	s := NewStore(16)
	key := []uint64{7, 8, 9}
	h := HashWords(key)

	// A fake colliding entry placed first in the bucket.
	fake := &entry{hash: h, key: []uint64{0xdead, 0xbeef}, val: "wrong"}
	s.mu.Lock()
	s.buckets[h] = append(s.buckets[h], fake)
	s.fifo = append(s.fifo, fake)
	s.mu.Unlock()

	// Miss with one screened collision (content differs).
	if v, ok, coll := s.Lookup(key); ok || coll != 1 {
		t.Fatalf("lookup on collision = (%v, %v, %d), want miss with 1 collision", v, ok, coll)
	}

	s.Insert(append([]uint64(nil), key...), "right")
	v, ok, coll := s.Lookup(key)
	if !ok || v.(string) != "right" {
		t.Fatalf("real entry not found behind collision: (%v, %v)", v, ok)
	}
	if coll != 1 {
		t.Fatalf("collisions screened = %d, want 1", coll)
	}
	if st := s.Stats(); st.Collisions < 2 {
		t.Fatalf("collision counter = %d, want >= 2", st.Collisions)
	}
}

func TestStoreEvictionBounds(t *testing.T) {
	const max = 8
	s := NewStore(max)
	for i := 0; i < 10*max; i++ {
		s.Insert([]uint64{uint64(i)}, i)
		if st := s.Stats(); st.Entries > max {
			t.Fatalf("entries = %d exceeds bound %d", st.Entries, max)
		}
	}
	st := s.Stats()
	if st.Evictions != 10*max-max {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 10*max-max)
	}
	// Oldest entries are gone, newest survive.
	if _, ok, _ := s.Lookup([]uint64{0}); ok {
		t.Fatal("oldest entry survived FIFO eviction")
	}
	if _, ok, _ := s.Lookup([]uint64{uint64(10*max - 1)}); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestStoreWordBudget(t *testing.T) {
	s := NewStore(4) // word budget = 4 * perEntryWords
	big := make([]uint64, 3*perEntryWords)
	for i := 0; i < 4; i++ {
		k := append([]uint64(nil), big...)
		k[0] = uint64(i)
		s.Insert(k, i)
	}
	st := s.Stats()
	if st.Words > int64(4*perEntryWords) {
		t.Fatalf("retained words %d exceed budget %d", st.Words, 4*perEntryWords)
	}
	if st.Evictions == 0 {
		t.Fatal("word budget never triggered eviction")
	}
}

func TestHashWordsDisperses(t *testing.T) {
	seen := make(map[uint64][]uint64)
	for i := 0; i < 4096; i++ {
		k := []uint64{uint64(i), uint64(i * 3)}
		h := HashWords(k)
		if prev, ok := seen[h]; ok {
			t.Fatalf("hash collision between %v and %v", prev, k)
		}
		seen[h] = k
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(128)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 500; i++ {
				k := []uint64{uint64(i % 64)}
				s.Insert(append([]uint64(nil), k...), fmt.Sprintf("v%d", i%64))
				if v, ok, _ := s.Lookup(k); ok && v.(string) != fmt.Sprintf("v%d", i%64) {
					err = fmt.Errorf("goroutine %d: key %v got %v", g, k, v)
					break
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
