package core

import (
	"fmt"
	"sort"

	"pdl/internal/flash"
	"pdl/internal/ftl"
)

var _ ftl.BatchReader = (*Store)(nil)

// ReadBatch recreates a batch of logical pages, filling bufs[i] with the
// content of pids[i] exactly as a loop of ReadPage calls would — but
// batch-first, the mirror image of WriteBatch: the base pages of the whole
// batch are read in one device ReadBatch under one bus grant, and the
// differential pages the batch still needs after the write-buffer and
// differential-page-cache consultations are deduplicated (one physical
// read serves every pid whose differential lives in the same page) and
// fetched as a second device batch.
//
// Consistency is ReadPage's: each pid's mapping entry is snapshotted with
// its version, and any pid whose version moved while its flash pages were
// in flight — a garbage-collection relocation or a flush of that pid — is
// retried in the next round against a fresh snapshot; a round only
// re-reads the retried pids. Each returned buffer therefore holds some
// consistent version of its page from during the call, exactly as serial
// ReadPage calls would return. On error the buffer contents are
// unspecified.
func (s *Store) ReadBatch(pids []uint32, bufs [][]byte) error {
	if len(pids) != len(bufs) {
		return fmt.Errorf("core: ReadBatch of %d pids given %d buffers", len(pids), len(bufs))
	}
	switch len(pids) {
	case 0:
		return nil
	case 1:
		return s.ReadPage(pids[0], bufs[0])
	}
	for i, pid := range pids {
		if err := ftl.CheckPID(pid, s.numPages); err != nil {
			return err
		}
		if err := ftl.CheckPageBuf(bufs[i], s.params.DataSize); err != nil {
			return err
		}
	}

	// Take the involved shards' read locks in ascending index order (the
	// module-wide shard lock order), so the write buffers stay stable for
	// the whole call and concurrent WriteBatch/Flush cannot deadlock.
	seen := make([]bool, len(s.shards))
	var involved []int
	for _, pid := range pids {
		if si := s.shardIndex(pid); !seen[si] {
			seen[si] = true
			involved = append(involved, si)
		}
	}
	sort.Ints(involved)
	for _, si := range involved {
		s.shards[si].mu.RLock()
	}
	defer func() {
		for _, si := range involved {
			s.shards[si].mu.RUnlock()
		}
	}()

	// pending is one not-yet-completed element of the batch: its index and
	// the mapping snapshot of the current round.
	type pending struct {
		i int
		e pageEntry
		v uint64
	}
	todo := make([]pending, len(pids))
	for i := range pids {
		todo[i] = pending{i: i}
	}

	for round := 0; len(todo) > 0; round++ {
		if round > 0 {
			s.rtel.readRetries.Add(int64(len(todo)))
		}
		// Step 1: snapshot every pending pid and read all base pages as
		// one device batch, straight into the caller's buffers (plus one
		// spare slab for verification when integrity is on).
		spareSize := s.params.SpareSize
		var spareSlab []byte
		if s.integ.verify {
			spareSlab = make([]byte, len(todo)*spareSize)
		}
		batch := make([]flash.PageRead, len(todo))
		for k := range todo {
			p := &todo[k]
			p.e, p.v = s.mt.snapshot(pids[p.i])
			if p.e.base == flash.NilPPN {
				return fmt.Errorf("%w: pid %d", ftl.ErrNotWritten, pids[p.i])
			}
			batch[k] = flash.PageRead{PPN: p.e.base, Data: bufs[p.i]}
			if spareSlab != nil {
				batch[k].Spare = spareSlab[k*spareSize : (k+1)*spareSize]
			}
		}
		if err := s.verifiedReadBatch(batch); err != nil {
			return fmt.Errorf("core: batch-reading %d base pages: %w", len(batch), err)
		}
		s.rtel.batchReads.Add(1)
		s.rtel.batchedReads.Add(int64(len(batch)))

		// Step 2: resolve each pid's differential — write buffer, then the
		// differential-page cache; whatever is left needs flash, grouped
		// by differential page so each page is read once.
		gen := s.dcache.genSnapshot()
		var retry []pending
		difFor := make(map[flash.PPN][]pending)
		var difOrder []flash.PPN
		for k, p := range todo {
			pid := pids[p.i]
			if !s.mt.stable(pid, p.v) {
				retry = append(retry, p)
				continue
			}
			if spareSlab != nil {
				if bad := s.verifyData(bufs[p.i], batch[k].Spare); len(bad) > 0 {
					// Uncorrectable base page: the serial path heals it from
					// a redundant source or returns the typed error; the
					// pid's shard read lock is already held.
					if err := s.readPageLocked(s.shardOf(pid), pid, bufs[p.i]); err != nil {
						return err
					}
					continue
				}
			}
			if d, ok := s.shardOf(pid).dwb.get(pid); ok {
				if err := d.Apply(bufs[p.i]); err != nil {
					return err
				}
				continue
			}
			if p.e.dif == flash.NilPPN {
				continue
			}
			if img, ok := s.dcache.get(p.e.dif); ok {
				if !s.mt.stable(pid, p.v) {
					retry = append(retry, p)
					continue
				}
				s.rtel.diffCacheHits.Add(1)
				if err := mergeRecord(img, pid, p.e.dif, bufs[p.i]); err != nil {
					return err
				}
				continue
			}
			if _, ok := difFor[p.e.dif]; !ok {
				difOrder = append(difOrder, p.e.dif)
			}
			difFor[p.e.dif] = append(difFor[p.e.dif], p)
		}

		// Step 3: one device batch for the differential pages, then merge.
		if len(difOrder) > 0 {
			scratches := make([][]byte, len(difOrder))
			dbatch := make([]flash.PageRead, len(difOrder))
			var dspareSlab []byte
			if s.integ.verify {
				dspareSlab = make([]byte, len(difOrder)*spareSize)
			}
			for k, ppn := range difOrder {
				scratches[k] = s.getPage()
				dbatch[k] = flash.PageRead{PPN: ppn, Data: scratches[k]}
				if dspareSlab != nil {
					dbatch[k].Spare = dspareSlab[k*spareSize : (k+1)*spareSize]
				}
			}
			err := s.verifiedReadBatch(dbatch)
			if err == nil {
				s.rtel.batchReads.Add(1)
				s.rtel.batchedReads.Add(int64(len(dbatch)))
				for k, ppn := range difOrder {
					pageData := scratches[k]
					if dspareSlab != nil {
						if bad := s.verifyData(pageData, dbatch[k].Spare); len(bad) > 0 {
							// Uncorrectable differential page: route every pid
							// it was serving through the serial read path,
							// which heals from redundant sources or surfaces
							// the typed error. The corrupt image must never
							// reach the cache. Shard read locks are held.
							for _, p := range difFor[ppn] {
								pid := pids[p.i]
								if err = s.readPageLocked(s.shardOf(pid), pid, bufs[p.i]); err != nil {
									break
								}
							}
							if err != nil {
								break
							}
							continue
						}
					}
					if s.dcache != nil {
						// Hand the verified image to the cache, which owns
						// it from here on (it must not go back to the pool).
						// The insert is fenced by gen (taken before the
						// flash read), so an image of a page that died
						// mid-flight is dropped, and the unstable pids below
						// retry against fresh mappings.
						s.dcache.put(ppn, pageData, gen)
						scratches[k] = nil
						// One miss per page read; further stable pids
						// served by the same image count as hits below,
						// exactly what serial ReadPage calls would report.
						s.rtel.diffCacheMisses.Add(1)
					}
					served := 0
					for _, p := range difFor[ppn] {
						pid := pids[p.i]
						if !s.mt.stable(pid, p.v) {
							retry = append(retry, p)
							continue
						}
						if served++; served > 1 && s.dcache != nil {
							s.rtel.diffCacheHits.Add(1)
						}
						if err = mergeRecord(pageData, pid, ppn, bufs[p.i]); err != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
			} else {
				err = fmt.Errorf("core: batch-reading %d differential pages: %w", len(dbatch), err)
			}
			for _, sc := range scratches {
				if sc != nil {
					s.putPage(sc)
				}
			}
			if err != nil {
				return err
			}
		}
		todo = retry
	}
	return nil
}
