package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

var _ ftl.BatchWriter = (*Store)(nil)

// pendingOp is one physical page program staged by the batch write path:
// either a base page (Case 3 of PDL_Writing, or an initial load) or a
// differential-page spill (Case 2). Staging separates the CPU half of a
// reflection — reading the base page and computing the differential, which
// runs per shard in parallel — from the device half, so that every program
// a batch causes can be issued as one ProgramBatch under one flash-lock
// acquisition.
type pendingOp struct {
	// idx is the batch position at which the serial write path would have
	// issued this program; programs are ordered (and mappings committed)
	// by it, which together with the monotone per-index time stamps makes
	// a crash mid-batch recover as a prefix of the batch.
	idx int
	// ts is the header creation time stamp.
	ts uint64
	// home is the home channel of the shard that staged the op (shard
	// index mod channel count); writePending maps homes onto actual
	// channels, applying the allocator's fall-over policy per home.
	home int

	// Base-page op (spill == false): pid's logical image becomes a new
	// base page. data aliases the caller's batch entry until programmed.
	pid  uint32
	data []byte

	// Spill op (spill == true): the shard's differential write buffer
	// became img (a pooled page image) carrying diffs.
	spill bool
	img   []byte
	diffs []diff.Differential
}

// WriteBatch reflects a batch of logical pages into flash as if WritePage
// had been called for each element in slice order, but batch-first: the
// batch is partitioned by write-buffer shard, each shard computes its
// differentials in parallel, and every physical page program the batch
// causes — differential-page spills and new base pages — is coalesced into
// a single device ProgramBatch issued under one flash-lock acquisition.
//
// Crash consistency is the serial path's: programs are issued in time
// stamp order (time stamps are pre-assigned in batch order), and the
// device contract guarantees a failed or interrupted batch leaves a
// prefix, so recovery after a kill mid-batch reconstructs exactly the
// state of having serially written some prefix of the batch and crashed.
//
// Error semantics: staging works on private copies of the shard write
// buffers, which are swapped in only after the device batch succeeds. A
// staging error (a base page read failing mid-shard) stops that shard at
// the failing write — a per-shard prefix — while everything already
// staged is still programmed and committed. An allocation or device
// error from the batch program itself applies NOTHING: no mapping is
// committed and every live write buffer is left exactly as before the
// call, so previously acknowledged writes keep reading correctly and the
// batch can be retried; at worst the failed attempt leaked programmed
// but unreferenced flash pages, which the next crash recovery marks
// obsolete.
func (s *Store) WriteBatch(writes []ftl.PageWrite) error {
	switch len(writes) {
	case 0:
		return nil
	case 1:
		return s.WritePage(writes[0].PID, writes[0].Data)
	}
	for _, w := range writes {
		if err := ftl.CheckPID(w.PID, s.numPages); err != nil {
			return err
		}
		if err := ftl.CheckPageBuf(w.Data, s.params.DataSize); err != nil {
			return err
		}
	}
	s.wtel.logicalWrites.Add(int64(len(writes)))

	// Partition the batch by shard, preserving batch order within each
	// shard (per-pid write order is defined by it), and take the involved
	// shard locks in ascending index order — the lock order that keeps
	// concurrent WriteBatch calls deadlock-free.
	order := make([][]int, len(s.shards))
	var involved []int
	for i, w := range writes {
		si := s.shardIndex(w.PID)
		if order[si] == nil {
			involved = append(involved, si)
		}
		order[si] = append(order[si], i)
	}
	sort.Ints(involved)
	for _, si := range involved {
		s.shards[si].mu.Lock()
	}
	defer func() {
		for _, si := range involved {
			s.shards[si].mu.Unlock()
		}
	}()

	// Reserve a contiguous time stamp range so write i carries tsBase+i+1:
	// batch order and time stamp order coincide no matter how the shards
	// interleave their staging work. The reservation must happen AFTER the
	// shard locks are held — the serial path stamps under the pid's shard
	// lock, so any concurrent writer to one of our pids is now ordered
	// after this batch and will draw a strictly greater time stamp;
	// reserving earlier would let such a writer commit a higher TS first
	// and make recovery arbitrate against the live commit order.
	tsBase := s.ts.Add(uint64(len(writes))) - uint64(len(writes))

	// Stage every shard's slice of the batch: the parallel, CPU-bound
	// half (base-page reads, differential computation, buffer updates) —
	// against a private copy of each shard's write buffer, so nothing is
	// visible until the device batch lands.
	staged := make([][]pendingOp, len(involved))
	bufs := make([]writeBuffer, len(involved))
	errs := make([]error, len(involved))
	if len(involved) == 1 {
		si := involved[0]
		staged[0], bufs[0], errs[0] = s.stageShard(&s.shards[si], si, writes, order[si], tsBase)
	} else {
		var wg sync.WaitGroup
		for k, si := range involved {
			wg.Add(1)
			go func(k, si int) {
				defer wg.Done()
				//pdlvet:ignore lockorder the parent WriteBatch holds every involved shard lock for this goroutine's whole lifetime
				staged[k], bufs[k], errs[k] = s.stageShard(&s.shards[si], si, writes, order[si], tsBase)
			}(k, si)
		}
		wg.Wait()
	}
	var ops []pendingOp
	for _, r := range staged {
		ops = append(ops, r...)
	}
	defer func() {
		for _, op := range ops {
			if op.spill {
				s.putPage(op.img)
			}
		}
	}()

	// Program and commit what was staged (even if a shard stopped partway:
	// its staged prefix is still valid), then publish the staged buffers.
	// On failure the live buffers were never touched.
	if err := s.writePending(ops); err != nil {
		return err
	}
	for k, si := range involved {
		s.shards[si].dwb = bufs[k]
	}
	return errors.Join(errs...)
}

// stageShard runs PDL_Writing for one shard's slice of the batch, staging
// instead of issuing every program the serial path would perform. All
// write-buffer mutations go to a private clone (returned as buf), which
// the caller publishes into the shard only after the staged ops are
// programmed — so a failed batch leaves the live buffer untouched. The
// caller holds sh.mu.
//
// Two small tables keep intra-batch writes to the same pid serially
// consistent even though nothing has reached flash yet: pendImg maps a pid
// to the base image staged for it earlier in this batch (later writes diff
// against it instead of flash), and effDif tracks whether a differential
// page for the pid will exist once the staged ops commit (which decides
// whether an empty differential may be elided or must be written to
// supersede a stale one durably).
//
//pdlvet:holds shard
func (s *Store) stageShard(sh *shard, si int, writes []ftl.PageWrite, idxs []int, tsBase uint64) (ops []pendingOp, buf writeBuffer, err error) {
	home := s.homeChannel(si)
	cur := sh.dwb.clone()
	pendImg := make(map[uint32][]byte)
	effDif := make(map[uint32]bool)
	base := s.getPage()
	defer s.putPage(base)

	for _, idx := range idxs {
		pid, data := writes[idx].PID, writes[idx].Data
		ts := tsBase + uint64(idx) + 1

		// Step 1: resolve the base image this write diffs against.
		img, difExists := pendImg[pid], false
		if img != nil {
			difExists = effDif[pid]
		} else {
			corrupt := false
			var e pageEntry
			for {
				var v uint64
				e, v = s.mt.snapshot(pid)
				if e.base == flash.NilPPN {
					break
				}
				spare := s.getVerifySpare()
				stable, bad, err := s.verifiedReadStable(e.base, base, spare, pid, v)
				s.putVerifySpare(spare)
				if !stable {
					continue // relocated mid-read; retry on the new mapping
				}
				if err != nil {
					return ops, cur, fmt.Errorf("core: reading base page of pid %d: %w", pid, err)
				}
				corrupt = len(bad) > 0
				break
			}
			if e.base == flash.NilPPN || corrupt {
				// Initial load — or heal-by-overwrite of an uncorrectably
				// corrupt base: either way data is the complete image and
				// becomes a (staged) base page, with nothing to diff
				// against (any buffered differential was computed against
				// the lost base and is superseded with it).
				if corrupt {
					cur.remove(pid)
					s.itel.pagesHealed.Add(1)
				}
				ops = append(ops, pendingOp{idx: idx, ts: ts, home: home, pid: pid, data: data})
				pendImg[pid] = data
				effDif[pid] = false
				continue
			}
			img = base
			if known, ok := effDif[pid]; ok {
				difExists = known
			} else {
				difExists = e.dif != flash.NilPPN
			}
		}

		// Step 2: create the differential.
		d, err := diff.Compute(pid, ts, img, data)
		if err != nil {
			return ops, cur, fmt.Errorf("core: computing differential of pid %d: %w", pid, err)
		}

		// Step 3: store the differential in the (staged) write buffer,
		// staging a spill or a new base page exactly where the serial
		// path writes.
		cur.remove(pid)
		if d.Empty() && !difExists {
			continue // byte-identical to its base and no stale differential to supersede
		}
		size := d.EncodedSize()
		switch {
		case size <= cur.free(): // Case 1
			cur.add(d)
		case size <= s.maxDiff: // Case 2
			spill := s.snapshotSpill(&cur, idx, ts, home)
			ops = append(ops, spill)
			for _, sd := range spill.diffs {
				effDif[sd.PID] = true
			}
			cur.clear()
			cur.add(d)
		default: // Case 3
			ops = append(ops, pendingOp{idx: idx, ts: ts, home: home, pid: pid, data: data})
			pendImg[pid] = data
			effDif[pid] = false
		}
	}
	return ops, cur, nil
}

// snapshotSpill stages the current contents of buf as a differential-page
// spill op without mutating buf: the encoded page image goes into a
// pooled page and the differential list into a private slice. Both the
// batch write path and the batched Flush build their spills through it;
// the caller decides when (and whether) the buffer itself is cleared.
func (s *Store) snapshotSpill(buf *writeBuffer, idx int, ts uint64, home int) pendingOp {
	op := pendingOp{idx: idx, ts: ts, home: home, spill: true,
		img:   s.getPage(),
		diffs: append([]diff.Differential(nil), buf.diffs...),
	}
	copy(op.img, buf.encode())
	return op
}

// writePending allocates, programs, and commits the staged ops of one
// batch: each op allocates on its home channel (with fall-over applied
// per home), the programs go to the device as a single ProgramBatch in
// batch order (= time stamp order) — which a striped device fans out as
// one concurrent leg per channel — and the mapping-table commits replay
// in idx order afterwards. The caller holds the involved shard locks;
// the flash lock (shared) and the involved channel locks, in ascending
// channel order, are taken here, once, for the whole batch.
//
// On a single-channel device the prefix guarantee is the serial path's:
// a crash mid-batch leaves exactly a TS-ordered prefix. On a striped
// device each channel's leg is a prefix of that channel's slice (the
// union-of-prefixes shape flash.Striped documents); recovery arbitrates
// per page by TS, so the recovered state is still a serially-explainable
// subset, and the kill tests assert exactly that.
//
//pdlvet:holds shard
func (s *Store) writePending(ops []pendingOp) error {
	if len(ops) == 0 {
		return nil
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].idx < ops[j].idx })
	if invariantsEnabled {
		// Batch order and time stamp order must coincide: recovery
		// arbitrates by TS, so a crash mid-batch only recovers as a
		// prefix of the batch if the programs land in TS order.
		for i := 1; i < len(ops); i++ {
			assertf(ops[i].ts > ops[i-1].ts,
				"batch TS order broken at position %d: ts %d follows %d", i, ops[i].ts, ops[i-1].ts)
		}
	}

	s.flashMu.RLock()
	defer s.flashMu.RUnlock()

	// Resolve each distinct home channel to an actual channel (fall-over
	// reads only atomics, so it runs before any channel lock), then take
	// the involved channel locks in ascending index order — the same
	// deadlock-freedom argument as the shard locks above.
	chanOf := make(map[int]int, s.nchan)
	perChan := make(map[int]int, s.nchan)
	for _, op := range ops {
		if _, ok := chanOf[op.home]; !ok {
			chanOf[op.home] = s.pickChannel(op.home)
		}
		perChan[chanOf[op.home]]++
	}
	locked := make([]int, 0, len(perChan))
	for ch := range perChan {
		locked = append(locked, ch)
	}
	sort.Ints(locked)
	for _, ch := range locked {
		s.chans[ch].mu.Lock()
	}
	defer func() {
		for _, ch := range locked {
			s.chans[ch].mu.Unlock()
		}
	}()

	// Allocate every channel's pages up front (AllocBatchOn collects
	// first if needed, so no GC interleaves an allocated-unprogrammed
	// page), then hand them to the ops in idx order within each channel.
	// A channel that turns out to have nothing reclaimable (ErrNoSpace)
	// does not fail the batch while a neighbor has space: its share is
	// allocated on another channel instead — pages are channel-agnostic,
	// only the lock that hands them out matters.
	chanPPNs := make(map[int][]flash.PPN, len(perChan))
	targets := append([]int(nil), locked...)
	for _, ch := range targets {
		ppns, err := s.allocPagesOn(ch, perChan[ch])
		if errors.Is(err, ftl.ErrNoSpace) {
			s.wtel.channelFallOvers.Add(1)
			ppns, err = s.allocPagesElsewhere(ch, perChan[ch], &locked)
		}
		if err != nil {
			return err
		}
		chanPPNs[ch] = ppns
	}
	ppns := make([]flash.PPN, len(ops))
	for i, op := range ops {
		ch := chanOf[op.home]
		ppns[i] = chanPPNs[ch][0]
		chanPPNs[ch] = chanPPNs[ch][1:]
	}

	spareSize := s.params.SpareSize
	spares := make([]byte, len(ops)*spareSize)
	batch := make([]flash.PageProgram, len(ops))
	for i, op := range ops {
		h := ftl.Header{Type: ftl.TypeBase, PID: op.pid, TS: op.ts,
			Seq: s.alloc.SeqOf(s.params.BlockOf(ppns[i]))}
		data := op.data
		if op.spill {
			h.Type, h.PID = ftl.TypeDiff, ftl.NoPID
			data = op.img
		}
		sp := spares[i*spareSize : (i+1)*spareSize]
		ftl.EncodeHeaderInto(h, sp)
		s.seal(data, sp)
		batch[i] = flash.PageProgram{PPN: ppns[i], Data: data, Spare: sp}
	}
	if err := s.dev.ProgramBatch(batch); err != nil {
		return fmt.Errorf("core: programming batch of %d pages: %w", len(batch), err)
	}
	s.wtel.batchWrites.Add(1)
	s.wtel.batchedPages.Add(int64(len(batch)))
	for i, op := range ops {
		if op.spill {
			// ppns[i] begins a new life as a differential page: fence off
			// any cached decode of its previous life before the mapping
			// commits below publish it to readers.
			s.dcache.invalidate(ppns[i])
		}
	}

	for i, op := range ops {
		ch := chanOf[op.home]
		if op.spill {
			s.wtel.bufferFlushes.Add(1)
			s.wtel.diffsWritten.Add(int64(len(op.diffs)))
			for _, d := range op.diffs {
				s.wtel.diffBytesWritten.Add(int64(d.EncodedSize()))
				old := s.mt.setDiffPage(d.PID, ppns[i], d.TS)
				if old != flash.NilPPN {
					if err := s.releaseDiffPage(old, ch); err != nil {
						return err
					}
				}
			}
			continue
		}
		s.wtel.newBasePages.Add(1)
		old := s.mt.setBasePage(op.pid, ppns[i], op.ts)
		if old.base != flash.NilPPN {
			if err := s.alloc.MarkObsoleteFrom(old.base, ch); err != nil {
				return err
			}
		}
		if old.dif != flash.NilPPN {
			if err := s.releaseDiffPage(old.dif, ch); err != nil {
				return err
			}
		}
	}
	return nil
}

// allocPagesOn hands out n flash pages of channel ch for one batch
// program under the channel's lock, with allocPageOn's background-GC
// etiquette: the channel's engine is kicked at the watermark, and an
// inline collection (the batch hit the reserve floor) counts as a
// backpressure fallback.
//
//pdlvet:holds flash,channel
func (s *Store) allocPagesOn(ch, n int) ([]flash.PPN, error) {
	ppns, collected, err := s.alloc.AllocBatchOn(ch, n)
	if s.gcEng != nil {
		if collected > 0 {
			s.wtel.syncGCFallbacks.Add(1)
			s.gcEng.Kick(ch)
		}
		s.kickEtiquette(ch)
	}
	return ppns, err
}

// allocPagesElsewhere is writePending's fall-over when channel `failed`
// cannot provide its share of a batch (all of its blocks fully live):
// the n pages are allocated on some other channel — first the ones whose
// locks the batch already holds, then, still under the ascending-order
// discipline, channels ABOVE the highest held index, locking each as it
// is tried (the new locks join *locked and are released with the rest by
// the caller's deferred unlock). Channels below the highest held index
// that the batch did not lock up front stay out of reach — locking one
// now would invert the channel-lock order — so in the worst case this
// returns ErrNoSpace even though such a channel had room; the batch
// paths that matter (Flush, wide WriteBatch) involve every channel and
// never hit that case.
//
//pdlvet:holds flash,channel
func (s *Store) allocPagesElsewhere(failed, n int, locked *[]int) ([]flash.PPN, error) {
	for _, ch := range *locked {
		if ch == failed {
			continue
		}
		ppns, err := s.allocPagesOn(ch, n)
		if !errors.Is(err, ftl.ErrNoSpace) {
			return ppns, err
		}
	}
	for ch := (*locked)[len(*locked)-1] + 1; ch < s.nchan; ch++ {
		//pdlvet:ignore lockorder ascending by construction: the loop starts above the highest held channel index, which the prover cannot see through the slice
		s.chans[ch].mu.Lock()
		*locked = append(*locked, ch)
		ppns, err := s.allocPagesOn(ch, n)
		if !errors.Is(err, ftl.ErrNoSpace) {
			return ppns, err
		}
	}
	return nil, ftl.ErrNoSpace
}
