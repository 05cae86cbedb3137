// Package fencedcache is the fencedcache analyzer's corpus: stub
// diffCache/mapTable shapes with fenced and unfenced inserts, and
// paired and unpaired mapping mutations.
package fencedcache

import "sync"

type PPN uint32

type diffCache struct {
	mu  sync.Mutex
	gen uint64
}

func (c *diffCache) genSnapshot() uint64                     { return c.gen }
func (c *diffCache) get(p PPN) ([]byte, bool)                { return nil, false }
func (c *diffCache) put(p PPN, img []byte, genBefore uint64) {}
func (c *diffCache) invalidate(p PPN)                        {}

type mapTable struct{ mu sync.Mutex }

func (t *mapTable) setDiffPage(pid uint32, p PPN, ts uint64) PPN { return 0 }
func (t *mapTable) dropDiffPage(p PPN)                           {}
func (t *mapTable) decDiffCount(p PPN) bool                      { return false }

type Store struct {
	dcache *diffCache
	mt     *mapTable
}

// goodFencedPut is the read path's idiom: snapshot, read, insert.
func (s *Store) goodFencedPut(p PPN, img []byte) {
	gen := s.dcache.genSnapshot()
	s.dcache.put(p, img, gen)
}

func (s *Store) goodInlinePut(p PPN, img []byte) {
	s.dcache.put(p, img, s.dcache.genSnapshot())
}

// goodParamPut trusts a fence threaded down from the caller.
func (s *Store) goodParamPut(p PPN, img []byte, gen uint64) {
	s.dcache.put(p, img, gen)
}

func (s *Store) badConstPut(p PPN, img []byte) {
	s.dcache.put(p, img, 0) // want `diff-cache put without a generation fence`
}

func (s *Store) badLatePut(p PPN, img []byte) {
	var gen uint64
	s.dcache.put(p, img, gen) // want `diff-cache put uses a generation snapshotted after the insert point`
	gen = s.dcache.genSnapshot()
	_ = gen
}

// goodPairedKill repoints a differential mapping and fences the cache.
func (s *Store) goodPairedKill(p PPN) {
	old := s.mt.setDiffPage(1, p, 2)
	s.dcache.invalidate(old)
}

func (s *Store) badUnpairedKill(p PPN) {
	s.mt.setDiffPage(1, p, 2) // want `setDiffPage kills or rebirths a differential mapping but this function never invalidates the diff cache`
}

func (s *Store) badUnpairedDrop(p PPN) {
	s.mt.dropDiffPage(p) // want `dropDiffPage kills or rebirths a differential mapping but this function never invalidates the diff cache`
}
