package core

import (
	"bytes"
	"math/rand"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftltest"
)

// TestGCCompactionMovesRecordBytes collects victims holding differential
// pages with surviving records: compaction must carry every survivor over
// as the exact record bytes the source page held (records are never
// decoded and re-encoded), pack nothing else, pad with the erased byte,
// and leave flash in a state that recovery rebuilds exactly like the live
// store.
func TestGCCompactionMovesRecordBytes(t *testing.T) {
	const numPages = 14
	opts := Options{MaxDifferentialSize: 128, ReserveBlocks: 2}
	chip := flash.NewChip(ftltest.SmallParams(16))
	s, err := New(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	shadow := loadInto(t, s, numPages)
	rng := rand.New(rand.NewSource(14))
	page := make([]byte, s.params.DataSize)
	readImage := func(ppn flash.PPN) []byte {
		if err := chip.Read(ppn, page, nil); err != nil {
			t.Fatal(err)
		}
		return page
	}
	compacted := 0
	for round := 0; round < 200 && compacted == 0; round++ {
		// Update a rotating subset, so each differential page keeps some
		// records alive while later pages supersede the rest.
		for pid := 0; pid < numPages; pid++ {
			if (pid+round)%3 == 0 {
				continue
			}
			off := 8 * rng.Intn(s.params.DataSize/8)
			rng.Read(shadow[pid][off : off+8])
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// The record each pid's mapping points at, before collecting.
		before := make([]pageEntry, numPages)
		src := make(map[uint32][]byte)
		for pid := range before {
			before[pid] = entryOf(s, uint32(pid))
			if before[pid].dif == flash.NilPPN {
				continue
			}
			rec, ok := diff.FindIn(readImage(before[pid].dif), uint32(pid))
			if !ok || rec.TS() != s.mt.diffTS[pid] {
				t.Fatalf("pid %d: mapped differential not found on its page", pid)
			}
			src[uint32(pid)] = append([]byte(nil), rec...)
		}
		diffTS := append([]uint64(nil), s.mt.diffTS...)
		if _, err := s.alloc.CollectOnceOn(0); err != nil {
			t.Fatal(err)
		}
		moved := make(map[flash.PPN]int)
		for pid := range before {
			e := entryOf(s, uint32(pid))
			if before[pid].dif != flash.NilPPN && e.dif != before[pid].dif {
				if s.mt.diffTS[pid] != diffTS[pid] {
					t.Fatalf("pid %d: compaction changed the differential's time stamp", pid)
				}
				moved[e.dif]++
			}
		}
		for q, n := range moved {
			img := readImage(q)
			walked, rest := 0, img
			for rec, tail, ok := diff.NextRecord(img); ok; rec, tail, ok = diff.NextRecord(tail) {
				if !bytes.Equal(rec, src[rec.PID()]) {
					t.Fatalf("compacted page %d: record of pid %d is not the source record's bytes", q, rec.PID())
				}
				walked++
				rest = tail
			}
			if walked != n {
				t.Fatalf("compacted page %d holds %d records, %d pids were moved there", q, walked, n)
			}
			if !allErased(rest) {
				t.Fatalf("compacted page %d: tail after the records is not erased", q)
			}
			compacted += n
		}
	}
	if compacted == 0 {
		t.Fatal("no collection compacted surviving differentials; scenario needs retuning")
	}
	for pid := 0; pid < numPages; pid++ {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
	r, err := Recover(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertRecoveredLikeLive(t, s, r)
}
