package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// Span kinds. A span is one call the benchmark made into a layer or,
// for the flash kinds, one call the store made into the device
// decorator. Kinds below spanDevRead are outer spans: in single-client
// mode the device spans inside them are their children.
const (
	spanCoreWrite uint8 = iota
	spanCoreRead
	spanCoreFlush
	spanCoreRecover
	spanKVGet
	spanKVPut
	spanKVScan
	spanDevRead
	spanDevProgram
	spanDevErase
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.write", "core.read", "core.flush", "core.recover",
	"kv.get", "kv.put", "kv.scan",
	"flash.read", "flash.program", "flash.erase",
}

func isOuter(k uint8) bool { return k < spanDevRead }

// span is one recorded call: start and end in ns since the tracer's
// epoch, and the index of the span that caused it (-1 for none).
type span struct {
	start, end int64
	parent     int32
	kind       uint8
}

// maxSpans bounds the spans kept for the written trace; the per-kind
// totals keep counting past it.
const maxSpans = 1 << 18

// maxSamples bounds the latency samples kept per span kind.
const maxSamples = 1 << 20

// sampleSet collects durations from any number of goroutines into a
// preallocated slice; each record claims a distinct index atomically.
type sampleSet struct {
	v []int64
	n atomic.Int64
}

func (s *sampleSet) record(ns int64) {
	if s.v == nil {
		return
	}
	if i := s.n.Add(1) - 1; i < int64(len(s.v)) {
		s.v[i] = ns
	}
}

// kindTotals accumulates the calls, pages and busy time of one span
// kind, and for outer kinds the time their device children took.
type kindTotals struct {
	calls, pages, busyNs, childNs atomic.Int64
}

// tracer receives the spans of one traced run. It is off — every hook
// a plain forward — during set-up, and switched on for the measured
// window and the recovery that follows it.
//
// With single set the workload has one client and no background
// collector, so every device call happens inside the one open outer
// call and is recorded as its child; that is what yields core self
// time. Otherwise device time is only a layer total.
type tracer struct {
	on     atomic.Bool
	single bool
	epoch  time.Time

	openIdx  atomic.Int32 // span index of the open outer span
	openKind atomic.Int32 // its kind, -1 when none is open

	spans []span
	nspan atomic.Int64

	kinds [numSpanKinds]kindTotals
	lat   [numSpanKinds]sampleSet

	spareProgs       atomic.Int64 // ProgramSpare calls
	readBatches      atomic.Int64 // ReadBatch calls
	readBatchPages   atomic.Int64
	programBatches   atomic.Int64 // ProgramBatch calls
	programBatchPage atomic.Int64

	sampler kernelSampler
}

func newTracer(single bool) *tracer {
	t := &tracer{single: single, epoch: time.Now(), spans: make([]span, maxSpans)}
	t.openIdx.Store(-1)
	t.openKind.Store(-1)
	kinds := []uint8{spanCoreWrite, spanCoreRead}
	if !single {
		kinds = append(kinds, spanKVGet, spanKVPut, spanKVScan)
	}
	for _, k := range kinds {
		t.lat[k].v = make([]int64, maxSamples)
	}
	t.sampler.last = make(map[uint32][]byte)
	return t
}

// active is a started span.
type active struct {
	idx   int32 // span slot, -1 once maxSpans are kept
	start int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(k uint8) active {
	a := active{idx: -1, start: t.now()}
	if i := t.nspan.Add(1) - 1; i < maxSpans {
		a.idx = int32(i)
	}
	if t.single && isOuter(k) {
		t.openIdx.Store(a.idx)
		t.openKind.Store(int32(k))
	}
	return a
}

// end closes a span of pages pages and returns its duration in ns.
func (t *tracer) end(k uint8, a active, pages int64) int64 {
	end := t.now()
	d := end - a.start
	parent := int32(-1)
	if t.single {
		if isOuter(k) {
			t.openKind.Store(-1)
		} else if ok := t.openKind.Load(); ok >= 0 {
			parent = t.openIdx.Load()
			t.kinds[ok].childNs.Add(d)
		}
	}
	if a.idx >= 0 {
		t.spans[a.idx] = span{start: a.start, end: end, parent: parent, kind: k}
	}
	tot := &t.kinds[k]
	tot.calls.Add(1)
	tot.pages.Add(pages)
	tot.busyNs.Add(d)
	t.lat[k].record(d)
	return d
}

// writeSpans writes the kept spans to path, one per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# index kind start_ns end_ns parent_index")
	n := min(t.nspan.Load(), maxSpans)
	for i := int64(0); i < n; i++ {
		if s := t.spans[i]; s.end != 0 {
			fmt.Fprintf(w, "%d %s %d %d %d\n", i, spanNames[s.kind], s.start, s.end, s.parent)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kernelSampler keeps page images the workload produced, for replaying
// the diff and ECC kernels on real inputs after the measured window.
// Only pids divisible by sampleEvery are tracked, so the sample is a
// fixed slice of the logical address space.
type kernelSampler struct {
	mu    sync.Mutex
	last  map[uint32][]byte // last image seen of each tracked pid
	pairs [][2][]byte       // (old, new) images of tracked writes
	reads [][]byte          // images returned by tracked reads
}

const (
	sampleEvery      = 61 // prime, so strided page layouts do not alias
	maxKernelSamples = 512
)

func (k *kernelSampler) read(pid uint32, img []byte) {
	if pid%sampleEvery != 0 {
		return
	}
	c := append([]byte(nil), img...)
	k.mu.Lock()
	k.last[pid] = c
	if len(k.reads) < maxKernelSamples {
		k.reads = append(k.reads, c)
	}
	k.mu.Unlock()
}

func (k *kernelSampler) write(pid uint32, img []byte) {
	if pid%sampleEvery != 0 {
		return
	}
	c := append([]byte(nil), img...)
	k.mu.Lock()
	if old, ok := k.last[pid]; ok && len(k.pairs) < maxKernelSamples {
		k.pairs = append(k.pairs, [2][]byte{old, c})
	}
	k.last[pid] = c
	k.mu.Unlock()
}

// timedDevice is the timing flash.Device decorator. It forwards every
// method unchanged; while its tracer is on, each read, program and erase
// is recorded as a span.
type timedDevice struct {
	d flash.Device
	t *tracer
}

var _ flash.Device = (*timedDevice)(nil)

func (d *timedDevice) Params() flash.Params { return d.d.Params() }

func (d *timedDevice) Read(ppn flash.PPN, data, spare []byte) error {
	if !d.t.on.Load() {
		return d.d.Read(ppn, data, spare)
	}
	a := d.t.begin(spanDevRead)
	err := d.d.Read(ppn, data, spare)
	d.t.end(spanDevRead, a, 1)
	return err
}

func (d *timedDevice) ReadData(ppn flash.PPN, data []byte) error {
	if !d.t.on.Load() {
		return d.d.ReadData(ppn, data)
	}
	a := d.t.begin(spanDevRead)
	err := d.d.ReadData(ppn, data)
	d.t.end(spanDevRead, a, 1)
	return err
}

func (d *timedDevice) ReadSpare(ppn flash.PPN, spare []byte) error {
	if !d.t.on.Load() {
		return d.d.ReadSpare(ppn, spare)
	}
	a := d.t.begin(spanDevRead)
	err := d.d.ReadSpare(ppn, spare)
	d.t.end(spanDevRead, a, 1)
	return err
}

func (d *timedDevice) ReadBatch(batch []flash.PageRead) error {
	if !d.t.on.Load() {
		return d.d.ReadBatch(batch)
	}
	a := d.t.begin(spanDevRead)
	err := d.d.ReadBatch(batch)
	d.t.end(spanDevRead, a, int64(len(batch)))
	d.t.readBatches.Add(1)
	d.t.readBatchPages.Add(int64(len(batch)))
	return err
}

func (d *timedDevice) Program(ppn flash.PPN, data, spare []byte) error {
	if !d.t.on.Load() {
		return d.d.Program(ppn, data, spare)
	}
	a := d.t.begin(spanDevProgram)
	err := d.d.Program(ppn, data, spare)
	d.t.end(spanDevProgram, a, 1)
	return err
}

func (d *timedDevice) ProgramBatch(batch []flash.PageProgram) error {
	if !d.t.on.Load() {
		return d.d.ProgramBatch(batch)
	}
	a := d.t.begin(spanDevProgram)
	err := d.d.ProgramBatch(batch)
	d.t.end(spanDevProgram, a, int64(len(batch)))
	d.t.programBatches.Add(1)
	d.t.programBatchPage.Add(int64(len(batch)))
	return err
}

func (d *timedDevice) ProgramPartial(ppn flash.PPN, off int, chunk []byte) error {
	if !d.t.on.Load() {
		return d.d.ProgramPartial(ppn, off, chunk)
	}
	a := d.t.begin(spanDevProgram)
	err := d.d.ProgramPartial(ppn, off, chunk)
	d.t.end(spanDevProgram, a, 1)
	return err
}

func (d *timedDevice) ProgramSpare(ppn flash.PPN, spare []byte) error {
	if !d.t.on.Load() {
		return d.d.ProgramSpare(ppn, spare)
	}
	a := d.t.begin(spanDevProgram)
	err := d.d.ProgramSpare(ppn, spare)
	d.t.end(spanDevProgram, a, 1)
	d.t.spareProgs.Add(1)
	return err
}

func (d *timedDevice) Erase(blk int) error {
	if !d.t.on.Load() {
		return d.d.Erase(blk)
	}
	a := d.t.begin(spanDevErase)
	err := d.d.Erase(blk)
	d.t.end(spanDevErase, a, 0)
	return err
}

func (d *timedDevice) MarkBad(blk int) error   { return d.d.MarkBad(blk) }
func (d *timedDevice) IsBad(blk int) bool      { return d.d.IsBad(blk) }
func (d *timedDevice) EraseCount(blk int) int  { return d.d.EraseCount(blk) }
func (d *timedDevice) Stats() flash.Stats      { return d.d.Stats() }
func (d *timedDevice) ResetStats()             { d.d.ResetStats() }
func (d *timedDevice) Wear() flash.WearSummary { return d.d.Wear() }
func (d *timedDevice) Sync() error             { return d.d.Sync() }
func (d *timedDevice) Close() error            { return d.d.Close() }

// timedStore wraps a core.Store with timers around every call the
// workloads (directly, or through kv) make into it. It is an ftl.Method
// with the batch interfaces and the concurrency advertisement the kv
// layer looks for, so kv drives the store through it unchanged.
type timedStore struct {
	s *core.Store
	t *tracer

	stalls, stallNs atomic.Int64 // write calls during which GCRuns advanced
	freeMin         atomic.Int64 // fewest free blocks seen after a write
}

var (
	_ ftl.Method      = (*timedStore)(nil)
	_ ftl.BatchWriter = (*timedStore)(nil)
	_ ftl.BatchReader = (*timedStore)(nil)
)

func newTimedStore(s *core.Store, t *tracer) *timedStore {
	m := &timedStore{s: s, t: t}
	m.freeMin.Store(1 << 62)
	return m
}

func (m *timedStore) Name() string          { return m.s.Name() }
func (m *timedStore) Device() flash.Device  { return m.s.Device() }
func (m *timedStore) PageSize() int         { return m.s.PageSize() }
func (m *timedStore) Stats() flash.Stats    { return m.s.Stats() }
func (m *timedStore) ConcurrencySafe() bool { return true }

func (m *timedStore) ReadPage(pid uint32, buf []byte) error {
	if !m.t.on.Load() {
		return m.s.ReadPage(pid, buf)
	}
	a := m.t.begin(spanCoreRead)
	err := m.s.ReadPage(pid, buf)
	m.t.end(spanCoreRead, a, 1)
	if err == nil {
		m.t.sampler.read(pid, buf)
	}
	return err
}

func (m *timedStore) ReadBatch(pids []uint32, bufs [][]byte) error {
	if !m.t.on.Load() {
		return m.s.ReadBatch(pids, bufs)
	}
	a := m.t.begin(spanCoreRead)
	err := m.s.ReadBatch(pids, bufs)
	m.t.end(spanCoreRead, a, int64(len(pids)))
	if err == nil {
		for i, pid := range pids {
			m.t.sampler.read(pid, bufs[i])
		}
	}
	return err
}

func (m *timedStore) WritePage(pid uint32, data []byte) error {
	if !m.t.on.Load() {
		return m.s.WritePage(pid, data)
	}
	m.t.sampler.write(pid, data)
	g := m.s.Allocator().GCRuns()
	a := m.t.begin(spanCoreWrite)
	err := m.s.WritePage(pid, data)
	m.afterWrite(g, m.t.end(spanCoreWrite, a, 1))
	return err
}

func (m *timedStore) WriteBatch(writes []ftl.PageWrite) error {
	if !m.t.on.Load() {
		return m.s.WriteBatch(writes)
	}
	for _, w := range writes {
		m.t.sampler.write(w.PID, w.Data)
	}
	g := m.s.Allocator().GCRuns()
	a := m.t.begin(spanCoreWrite)
	err := m.s.WriteBatch(writes)
	m.afterWrite(g, m.t.end(spanCoreWrite, a, int64(len(writes))))
	return err
}

// afterWrite counts a GC stall — a write call during which a collection
// ran — and tracks the free-block low-water mark.
func (m *timedStore) afterWrite(gcBefore, ns int64) {
	if m.s.Allocator().GCRuns() != gcBefore {
		m.stalls.Add(1)
		m.stallNs.Add(ns)
	}
	fb := int64(m.s.Allocator().FreeBlocks())
	for {
		cur := m.freeMin.Load()
		if fb >= cur || m.freeMin.CompareAndSwap(cur, fb) {
			return
		}
	}
}

func (m *timedStore) Flush() error {
	if !m.t.on.Load() {
		return m.s.Flush()
	}
	a := m.t.begin(spanCoreFlush)
	err := m.s.Flush()
	m.t.end(spanCoreFlush, a, 0)
	return err
}
