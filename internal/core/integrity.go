// Page integrity: spare-area sealing, read-path verification, and
// single-page self-healing.
//
// Every base, differential, and checkpoint page the store programs is
// "sealed" when the geometry allows it: the spare area carries, after the
// 23-byte header, a SEC-DED ECC over the data area (3 bytes per 256-byte
// sector, internal/flash/ecc) and a CRC-8 checksum over the header fields
// (see the layout comment in internal/ftl). Sealing is pure CPU — the
// trailer rides the page's one program operation — so it is always on
// when it fits.
//
// On read, the verifying paths correct single-bit flips silently
// (Telemetry.EccCorrectedBits) and treat an uncorrectable sector as a
// single-page failure in the sense of Graefe & Kuno: the page is
// rebuilt from a redundant source when one survives — PDL's structural
// redundancy makes that unusually often possible — and only when none
// does the read returns a typed *ftl.PageError. The contract is strict:
// a read either returns exactly the bytes written, or the typed error;
// never silently wrong data, never a panic.
//
// Healing decision tree for an uncorrectably corrupt BASE page:
//
//  1. a buffered differential for the pid exists (shard write buffer):
//     if its ranges cover every corrupt byte, apply it and serve — the
//     heal stays transient (the buffered differential is the complete
//     delta against the lost base, so no durable base can be written
//     until it flushes); if it does not cover, the uncovered bytes are
//     unrecoverable (they equal the lost base's) -> PageError.
//  2. no buffered differential, but a differential page is linked: find
//     its newest record in place, in the cached page image or a verified
//     read (only that record is decoded, for the coverage check); if it
//     covers every corrupt byte, apply it — buf is then
//     the current logical page — and make the heal durable: program the
//     merged image as a new base page and repoint the mapping with a
//     fresh time stamp, releasing the old base and differential.
//  3. otherwise -> PageError{pid, ppn, CorruptBase}.
//
// A corrupt DIFFERENTIAL page on a foreground read has no redundant
// source left by construction (the write buffer and the cache are
// consulted before the flash read) -> PageError{pid, ppn, CorruptDiff}.
// During GC compaction the cached page image can still rescue it (gc.go),
// and a whole-page write heals either kind by overwrite.
package core

import (
	"sync/atomic"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/ecc"
	"pdl/internal/ftl"
)

// integrity is the store's page-integrity configuration, fixed at New.
type integrity struct {
	// fits reports whether the geometry carries the integrity trailer
	// (ftl.IntegrityFits); pages are sealed on program iff fits.
	fits bool
	// verify reports whether read paths check and heal:
	// fits && !Options.DisableVerify.
	verify bool
}

// integrityTelemetry holds the integrity counters. They are atomics
// because verifying reads run with no store-level lock held.
type integrityTelemetry struct {
	eccCorrectedBits       atomic.Int64
	pagesHealed            atomic.Int64
	unrecoverablePages     atomic.Int64
	headerChecksumFailures atomic.Int64
}

// getVerifySpare returns a pooled spare-area scratch for a verifying
// read, or nil when verification is off (the read funnels then skip the
// spare area entirely, which is the -verify=off baseline).
func (s *Store) getVerifySpare() []byte {
	if !s.integ.verify {
		return nil
	}
	return s.spares.Get(s.params.SpareSize)
}

// putVerifySpare returns a verify scratch to the pool (nil is a no-op).
func (s *Store) putVerifySpare(b []byte) {
	if b != nil {
		s.spares.Put(b)
	}
}

// seal writes the data-area ECC and header checksum into an encoded
// spare (ftl.SealSpare); a no-op when the geometry cannot carry the
// trailer, so every program site calls it unconditionally between
// EncodeHeaderInto and the program.
func (s *Store) seal(data, spare []byte) {
	if s.integ.fits {
		ftl.SealSpare(data, spare)
	}
}

// verifyData checks data against the ECC in its sealed spare, correcting
// single-bit flips in place (counted in telemetry) and returning the
// indices of uncorrectable sectors (nil when clean).
func (s *Store) verifyData(data, spare []byte) []int {
	corrected, bad, err := ecc.CorrectPageSectors(data, ftl.SpareECC(spare, len(data)))
	if err != nil {
		// Only reachable on a geometry mismatch, which New rules out;
		// treat the page as wholly unverifiable rather than panicking.
		bad = make([]int, (len(data)+ecc.SectorSize-1)/ecc.SectorSize)
		for i := range bad {
			bad[i] = i
		}
	}
	if corrected > 0 {
		s.itel.eccCorrectedBits.Add(int64(corrected))
	}
	return bad
}

// The four functions below are the package's raw device READ funnels;
// pdlvet's deviceio analyzer rejects device reads anywhere else in core,
// so no read path can bypass verification by construction.

// verifiedReadStable is the raw read of the optimistic (version-checked)
// paths: it reads ppn's data area — and spare area when verification is
// on — re-checks the pid's mapping version, and only then verifies, so
// corrected-bit counts and heal decisions are never taken on bytes a
// concurrent relocation made stale. A nil spare skips verification.
//
//pdlvet:ignore deviceio raw-read funnel; every other core read goes through here
func (s *Store) verifiedReadStable(ppn flash.PPN, data, spare []byte, pid uint32, v uint64) (stable bool, bad []int, err error) {
	if spare == nil {
		err = s.dev.ReadData(ppn, data)
		return s.mt.stable(pid, v), nil, err
	}
	err = s.dev.Read(ppn, data, spare)
	if !s.mt.stable(pid, v) {
		return false, nil, nil
	}
	if err != nil {
		return true, nil, err
	}
	return true, s.verifyData(data, spare), nil
}

// verifiedRead is the raw read of the locked paths (GC relocation holds
// the victim's channel lock, so no version check is needed): read and
// verify in one step. A nil spare skips verification.
//
//pdlvet:ignore deviceio raw-read funnel
func (s *Store) verifiedRead(ppn flash.PPN, data, spare []byte) (bad []int, err error) {
	if spare == nil {
		return nil, s.dev.ReadData(ppn, data)
	}
	if err := s.dev.Read(ppn, data, spare); err != nil {
		return nil, err
	}
	return s.verifyData(data, spare), nil
}

// verifiedReadBatch is the raw read funnel of the batched read path.
// Entries carrying a Spare are verified by the caller (readbatch.go)
// once its per-entry stability checks pass, so this helper only issues
// the device batch.
//
//pdlvet:ignore deviceio raw-read funnel
func (s *Store) verifiedReadBatch(reads []flash.PageRead) error {
	return s.dev.ReadBatch(reads)
}

// scanRead is the raw read of the recovery and checkpoint scan paths:
// one charged device read returning both areas, with header-checksum and
// ECC interpretation left to the scan (erased and torn pages are exempt
// from verification by construction, so the scan cannot delegate to
// verifyData blindly).
//
//pdlvet:ignore deviceio raw-read funnel
func (s *Store) scanRead(ppn flash.PPN, data, spare []byte) error {
	return s.dev.Read(ppn, data, spare)
}

// coversSectors reports whether differential d overwrites every byte of
// the given 256-byte sectors — the condition under which applying d to a
// corrupt base yields a byte-exact current page. Ranges are ascending
// and non-overlapping (diff.Compute's postcondition).
func coversSectors(d diff.Differential, bad []int, pageSize int) bool {
	for _, sec := range bad {
		pos := sec * ecc.SectorSize
		end := pos + ecc.SectorSize
		if end > pageSize {
			end = pageSize
		}
		covered := false
		for _, r := range d.Ranges {
			if r.Off > pos {
				break // a gap at pos: the corrupt byte survives
			}
			if e := r.Off + len(r.Data); e > pos {
				pos = e
				if pos >= end {
					covered = true
					break
				}
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// healBaseRead implements the healing decision tree (package comment
// above) for an uncorrectably corrupt base page found by readPageLocked.
// buf holds the corrupt base image with its correctable sectors already
// fixed; bad lists the uncorrectable sectors. On (true, nil) buf holds
// the exact current logical page; on (true, err) the read terminally
// failed; (false, nil) means the mapping moved mid-heal and the caller
// should retry from a fresh snapshot. The caller holds pid's shard lock.
//
//pdlvet:holds shard
func (s *Store) healBaseRead(sh *shard, pid uint32, e pageEntry, v uint64, buf []byte, bad []int) (bool, error) {
	// Source 1: a buffered differential. It is the complete delta against
	// the lost base, so it either covers every corrupt byte (uncovered
	// bytes of the current page equal the base's, which are gone) or the
	// page is unrecoverable. The heal is transient: serving is correct,
	// but no durable base can be written while the buffered differential
	// — computed against the lost base — is still the write buffer's
	// newest truth.
	if d, ok := sh.dwb.get(pid); ok {
		if !coversSectors(d, bad, s.params.DataSize) {
			s.itel.unrecoverablePages.Add(1)
			return true, &ftl.PageError{PID: pid, PPN: e.base, Kind: ftl.CorruptBase}
		}
		if err := d.Apply(buf); err != nil {
			return true, err
		}
		s.itel.pagesHealed.Add(1)
		return true, nil
	}
	// Source 2: the flushed differential chain.
	if e.dif == flash.NilPPN {
		s.itel.unrecoverablePages.Add(1)
		return true, &ftl.PageError{PID: pid, PPN: e.base, Kind: ftl.CorruptBase}
	}
	img, ok := s.dcache.get(e.dif)
	if ok {
		if !s.mt.stable(pid, v) {
			return false, nil
		}
	} else {
		img = s.getPage()
		defer s.putPage(img)
		spare := s.getVerifySpare()
		stable, dbad, err := s.verifiedReadStable(e.dif, img, spare, pid, v)
		s.putVerifySpare(spare)
		if !stable {
			return false, nil
		}
		if err != nil {
			return true, err
		}
		if len(dbad) > 0 {
			// Both the base and its differential page are corrupt: the
			// failure is no longer single-page.
			s.itel.unrecoverablePages.Add(1)
			return true, &ftl.PageError{PID: pid, PPN: e.base, Kind: ftl.CorruptBase}
		}
	}
	rec, ok := diff.FindIn(img, pid)
	if ok {
		d, _, err := diff.Decode(rec)
		ok = err == nil && coversSectors(d, bad, s.params.DataSize)
	}
	if !ok {
		s.itel.unrecoverablePages.Add(1)
		return true, &ftl.PageError{PID: pid, PPN: e.base, Kind: ftl.CorruptBase}
	}
	if err := diff.ApplyRecord(rec, buf); err != nil {
		return true, err
	}
	// buf is now the exact current logical page (base + newest flushed
	// differential, with no buffered one). Make the heal durable.
	s.healCommit(pid, v, buf)
	s.itel.pagesHealed.Add(1)
	return true, nil
}

// healCommit makes a healed base read durable: the merged image is
// programmed as a new base page with a fresh time stamp and the mapping
// repointed at it, conditional on the version pinned by the heal — a
// concurrent GC relocation loses nothing (the heal is simply left
// transient and redone by the next read). Failure here is deliberately
// swallowed: the read being served is already correct, and a full flash
// is no reason to fail it. The caller holds pid's shard lock; taking the
// flash and channel locks under it is the hierarchy's normal order.
//
//pdlvet:holds shard
func (s *Store) healCommit(pid uint32, v uint64, img []byte) {
	s.flashMu.RLock()
	defer s.flashMu.RUnlock()
	_ = s.writeOnSomeChannel(s.shardIndex(pid),
		//pdlvet:holds shard,flash,channel
		func(ch int) error {
			q, err := s.allocPageOn(ch)
			if err != nil {
				return err
			}
			ts := s.nextTS()
			spareBuf := s.chans[ch].spareBuf
			ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeBase, PID: pid, TS: ts,
				Seq: s.alloc.SeqOf(s.params.BlockOf(q))}, spareBuf)
			s.seal(img, spareBuf)
			if err := s.dev.Program(q, img, spareBuf); err != nil {
				return err
			}
			old, ok := s.mt.healBaseTo(pid, v, q, ts)
			if !ok {
				// Lost the race: the fresh page is unreachable; retire it.
				return s.alloc.MarkObsoleteFrom(q, ch)
			}
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
			return nil
		})
}

// IntegrityEnabled reports whether read-path verification and healing
// are active (geometry fits and Options.DisableVerify is unset).
func (s *Store) IntegrityEnabled() bool { return s.integ.verify }
