package core

// Allocation budgets of the read path with verification on. Flushed
// differentials stay in wire form: a cache hit walks the cached page image
// in place, and a miss hands the verified scratch page to the cache, so
// the only allocation a read of a diff-bearing pid may make is the page
// image a miss leaves behind in the cache.

import (
	"bytes"
	"math/rand"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftltest"
)

// readBatchAllocBudget is the allocation budget of an 8-pid ReadBatch
// whose differentials share one differential page that the batch itself
// reads and caches: 17 for the batch's bookkeeping (shard set, pending
// list, spare slabs, device batches, the per-page grouping) plus the one
// page image the cache keeps. Decoding the page instead costs 58.
const readBatchAllocBudget = 18

// allocStore loads numPages pages on 2 KB pages with verification on,
// gives each a small update and flushes, so every pid's differential
// lives in one shared differential page.
func allocStore(t *testing.T, opts Options, numPages int) (*Store, [][]byte) {
	t.Helper()
	if invariantsEnabled || raceEnabled {
		t.Skip("allocation budgets are measured without the race detector and the invariant layer")
	}
	p := ftltest.SmallParams(16)
	p.DataSize, p.SpareSize = 2048, 64
	s, err := New(flash.NewChip(p), numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IntegrityEnabled() {
		t.Fatal("verification is off; the budgets are for verifying reads")
	}
	rng := rand.New(rand.NewSource(14))
	shadow := make([][]byte, numPages)
	for pid := range shadow {
		shadow[pid] = make([]byte, p.DataSize)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	for pid := range shadow {
		rng.Read(shadow[pid][pid*8 : pid*8+8])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, shadow
}

func TestReadPageCacheHitAllocatesNothing(t *testing.T) {
	s, shadow := allocStore(t, Options{}, 16)
	buf := make([]byte, s.params.DataSize)
	mustReadEqual(t, s, 3, shadow[3]) // caches the differential page
	hits := s.Telemetry().DiffCacheHits
	n := testing.AllocsPerRun(100, func() {
		if err := s.ReadPage(3, buf); err != nil {
			t.Fatal(err)
		}
	})
	if got := s.Telemetry().DiffCacheHits - hits; got != 101 {
		t.Fatalf("%d cache hits over 101 reads; the budget is for hits", got)
	}
	if !bytes.Equal(buf, shadow[3]) {
		t.Fatal("hot read returned wrong content")
	}
	if n != 0 {
		t.Errorf("ReadPage on a cache hit made %v allocations, want 0", n)
	}
}

func TestReadPageCacheMissAllocatesOnlyTheImage(t *testing.T) {
	// A one-page cache and two pids on different differential pages:
	// every read misses, and the cache recycles its evicted entry.
	s, shadow := allocStore(t, Options{DiffCachePages: 1}, 16)
	shadow[5][100]++
	if err := s.WritePage(5, shadow[5]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if entryOf(s, 3).dif == entryOf(s, 5).dif {
		t.Fatal("pids 3 and 5 share a differential page")
	}
	buf := make([]byte, s.params.DataSize)
	mustReadEqual(t, s, 3, shadow[3])
	mustReadEqual(t, s, 5, shadow[5])
	misses := s.Telemetry().DiffCacheMisses
	n := testing.AllocsPerRun(100, func() {
		if err := s.ReadPage(3, buf); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadPage(5, buf); err != nil {
			t.Fatal(err)
		}
	})
	if got := s.Telemetry().DiffCacheMisses - misses; got != 202 {
		t.Fatalf("%d cache misses over 202 reads; the budget is for misses", got)
	}
	if !bytes.Equal(buf, shadow[5]) {
		t.Fatal("cold read returned wrong content")
	}
	if n > 2 {
		t.Errorf("two cache-miss ReadPages made %v allocations, want at most 2 (one image each)", n)
	}
}

func TestReadBatchSharedDiffPageAllocBudget(t *testing.T) {
	s, shadow := allocStore(t, Options{}, 16)
	pids := []uint32{0, 2, 4, 6, 8, 10, 12, 14}
	bufs := make([][]byte, len(pids))
	for i := range bufs {
		bufs[i] = make([]byte, s.params.DataSize)
	}
	dif := entryOf(s, pids[0]).dif
	for _, pid := range pids {
		if entryOf(s, pid).dif != dif {
			t.Fatalf("pid %d is not on the shared differential page", pid)
		}
	}
	misses := s.Telemetry().DiffCacheMisses
	n := testing.AllocsPerRun(100, func() {
		s.dcache.invalidate(dif) // the batch reads and caches the page itself
		if err := s.ReadBatch(pids, bufs); err != nil {
			t.Fatal(err)
		}
	})
	if got := s.Telemetry().DiffCacheMisses - misses; got != 101 {
		t.Fatalf("%d cache misses over 101 batches, want one per batch", got)
	}
	for i, pid := range pids {
		if !bytes.Equal(bufs[i], shadow[pid]) {
			t.Fatalf("pid %d batch read returned wrong content", pid)
		}
	}
	if n > readBatchAllocBudget {
		t.Errorf("8-pid ReadBatch over one shared differential page made %v allocations, budget %d",
			n, readBatchAllocBudget)
	}
}
