package core

import (
	"fmt"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// relocate is PDL's garbage-collection callback (section 4.1): valid base
// pages of the victim block are moved to newly allocated pages, and the
// valid differentials of the victim's differential pages are compacted
// into new differential pages ("we move only valid differentials into a
// new differential page, i.e., we do compaction here").
//
// It runs inside the allocator's collect, which is only reached while
// the victim's channel lock is held (under the shared flash lock) —
// from a foreground allocation in synchronous mode, or from the
// channel's background CollectOne increment — so it may mutate the
// mapping tables (through the mapTable's versioned committers, which
// readers observe), and it must never take a shard lock (shard locks
// order before the flash lock). Every mapping repoint happens before the
// allocator erases the victim, which is what the lock-free read path's
// version check relies on. Relocation stays channel-local: replacement
// pages are allocated on the victim's own channel through the cold
// append point (AllocGC), so collections on different channels never
// contend and relocated (cold) data segregates from the hot stream.
//
//pdlvet:holds flash,channel
func (s *Store) relocate(victim int) error {
	p := s.params
	ch := s.alloc.ChannelOfBlock(victim)

	// Pass 1: move valid base pages and collect valid differentials.
	// Base pages move first so that the second pass never packs a
	// differential whose base page is about to disappear. Survivors stay
	// in wire form, aliasing the victim pages read here, which therefore
	// go back to the pool only once compaction is done.
	var keep []pendingDiff
	var pages [][]byte
	defer func() {
		for _, pg := range pages {
			s.putPage(pg)
		}
	}()
	for i := 0; i < p.PagesPerBlock; i++ {
		ppn := p.PPNOf(victim, i)
		if pid, ts, ok := s.mt.baseOwner(ppn); ok {
			if err := s.relocateBasePage(pid, ts, ppn, ch); err != nil {
				return err
			}
			continue
		}
		if s.mt.diffCount(ppn) > 0 {
			pages = append(pages, s.getPage())
			var err error
			if keep, err = s.validDifferentials(ppn, pages[len(pages)-1], keep); err != nil {
				return err
			}
			s.mt.dropDiffPage(ppn)
			// The page is being compacted away and its block erased:
			// readers will be repointed (and their version checks fail),
			// so the cached image must go before the PPN can be reused.
			s.dcache.invalidate(ppn)
		}
	}

	// Pass 2: compact the surviving differentials into new differential
	// pages, packing as many as fit per page.
	for len(keep) > 0 {
		n, used := 0, 0
		for n < len(keep) && used+len(keep[n].rec) <= p.DataSize {
			used += len(keep[n].rec)
			n++
		}
		if n == 0 {
			return fmt.Errorf("core: differential of pid %d too large to compact", keep[0].rec.PID())
		}
		if err := s.writeCompactedPage(keep[:n], ch); err != nil {
			return err
		}
		keep = keep[n:]
	}
	return nil
}

// pendingDiff is one surviving differential queued for compaction — its
// record bytes, moved verbatim — and the victim page it came from, so the
// repoint can verify the mapping still points there (a writer on another
// channel may have flushed a newer differential mid-collection).
type pendingDiff struct {
	rec diff.Record
	src flash.PPN
}

// relocateBasePage copies one valid base page out of a victim block to
// the victim channel's cold stream. ts is the creation time stamp
// baseOwner validated; the copy keeps it — relocation does not make the
// content newer, and recovery must still see any later differential as
// the winner.
//
// Relocation is also the integrity layer's scrubbing pass: the copy is
// verified against its spare-area ECC, single-bit flips are corrected
// before the copy programs (the new page gets a fresh seal), and an
// UNCORRECTABLE page is copied through with its original ECC bytes so
// the corruption stays detectable at the new address — GC must never
// take shard locks, so it cannot consult the write buffer and must leave
// healing to the next foreground read (or fail that read loudly).
//
//pdlvet:holds flash,channel
func (s *Store) relocateBasePage(pid uint32, ts uint64, ppn flash.PPN, ch int) error {
	p := s.params
	scratch := s.getPage()
	defer s.putPage(scratch)
	var (
		bad   []int
		spare []byte
		err   error
	)
	if s.integ.fits {
		spare = s.spares.Get(p.SpareSize)
		defer s.putVerifySpare(spare)
		if s.integ.verify {
			bad, err = s.verifiedRead(ppn, scratch, spare)
		} else {
			// Verification off: a content-and-trailer-preserving move, so
			// a later verifying open still sees the original seal.
			err = s.scanRead(ppn, scratch, spare)
		}
	} else {
		_, err = s.verifiedRead(ppn, scratch, nil)
	}
	if err != nil {
		return err
	}
	dst, err := s.alloc.AllocGC(ch)
	if err != nil {
		return err
	}
	spareBuf := s.chans[ch].spareBuf
	ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeBase, PID: pid, TS: ts,
		Seq: s.alloc.SeqOf(s.params.BlockOf(dst))}, spareBuf)
	if s.integ.fits {
		if s.integ.verify && len(bad) == 0 {
			ftl.SealSpare(scratch, spareBuf) // verified copy: fresh seal (scrub)
		} else {
			// Unverified or uncorrectable content: carry the original ECC
			// so corruption stays detectable; only the header checksum is
			// recomputed (Seq changed with the move).
			copy(ftl.SpareECC(spareBuf, p.DataSize), ftl.SpareECC(spare, p.DataSize))
			ftl.ResealHeader(spareBuf, p.DataSize)
		}
	}
	if err := s.dev.Program(dst, scratch, spareBuf); err != nil {
		return err
	}
	if !s.mt.relocateBaseFrom(pid, ppn, dst) {
		// A writer on another channel committed a newer base for pid
		// between baseOwner and here: the copy at dst is stale content.
		// Discard it — dst is on our channel, so the mark is direct.
		return s.alloc.MarkObsolete(dst)
	}
	return nil
}

// validDifferentials reads differential page ppn into page, a scratch
// the caller keeps until compaction is done, and appends to keep the
// records that are still current (the mapping table still points at this
// page for their pid), walked in place.
//
// The read is verified: an uncorrectably corrupt victim page is healed
// from the differential-page cache when its image is still there (an
// exact copy of the page's current content, validated against the
// mapping below like any other), and otherwise fails the collection
// loudly with the typed error — silently compacting garbage records, or
// silently dropping the page's survivors, would turn into wrong reads
// later.
//
//pdlvet:holds flash
func (s *Store) validDifferentials(ppn flash.PPN, page []byte, keep []pendingDiff) ([]pendingDiff, error) {
	spare := s.getVerifySpare()
	bad, err := s.verifiedRead(ppn, page, spare)
	s.putVerifySpare(spare)
	if err != nil {
		return keep, err
	}
	if len(bad) > 0 {
		cached, ok := s.dcache.get(ppn)
		if !ok {
			s.itel.unrecoverablePages.Add(1)
			return keep, &ftl.PageError{PID: ftl.NoPID, PPN: ppn, Kind: ftl.CorruptDiff}
		}
		s.itel.pagesHealed.Add(1)
		copy(page, cached)
	}
	for rec, rest, ok := diff.NextRecord(page); ok; rec, rest, ok = diff.NextRecord(rest) {
		if int(rec.PID()) >= s.numPages {
			continue
		}
		if dif, ts := s.mt.diffOf(rec.PID()); dif == ppn && ts == rec.TS() {
			keep = append(keep, pendingDiff{rec: rec, src: ppn})
		}
	}
	return keep, nil
}

// writeCompactedPage writes a batch of surviving differentials into a new
// differential page on the victim's channel and repoints the mapping
// table. The page image is built in a pooled scratch page — garbage
// collection compacts a page per surviving batch, and allocating a fresh
// image each time put a page-sized allocation on every collection
// increment.
//
//pdlvet:holds flash,channel
func (s *Store) writeCompactedPage(ds []pendingDiff, ch int) error {
	p := s.params
	q, err := s.alloc.AllocGC(ch)
	if err != nil {
		return err
	}
	scratch := s.getPage()
	defer s.putPage(scratch)
	img := scratch[:0]
	for _, pd := range ds {
		img = append(img, pd.rec...)
	}
	for len(img) < p.DataSize {
		img = append(img, 0xFF)
	}
	spareBuf := s.chans[ch].spareBuf
	ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeDiff, PID: ftl.NoPID, TS: s.nextTS(),
		Seq: s.alloc.SeqOf(s.params.BlockOf(q))}, spareBuf)
	s.seal(img, spareBuf)
	if err := s.dev.Program(q, img, spareBuf); err != nil {
		return err
	}
	// q begins a new life as a compaction target: fence off any cached
	// image of its previous life before the repoints publish it.
	s.dcache.invalidate(q)
	live := 0
	for _, pd := range ds {
		if s.mt.repointDiffFrom(pd.rec.PID(), pd.src, q, pd.rec.TS()) {
			live++
		}
	}
	if live == 0 {
		// Writers on other channels superseded every record mid-compaction;
		// q never entered the valid count, so nothing will ever decrement
		// it to obsolescence — discard it now (q is on our channel).
		return s.alloc.MarkObsolete(q)
	}
	return nil
}
