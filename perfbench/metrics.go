package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"pdl/internal/buffer"
	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/gc"
)

// workload is one named traffic mix.
type workload struct {
	clients int
	setup   func(seed int64, tr *tracer) (instance, error)
}

// instance is a set-up workload, ready to measure once and then either
// finish or close.
type instance interface {
	measure(stop stopRule) (*window, error)
	finish() (*ending, error)
	// close releases an instance that will not be finished.
	close()
}

var workloads = map[string]workload{
	"page-update": {clients: 1, setup: setupPageUpdate},
	"page-read":   {clients: 1, setup: setupPageRead},
	"kv-serve":    {clients: kvClients, setup: setupKV},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// diffCachePages is the store's default decoded-diff cache size, which
// every workload runs with.
const diffCachePages = 256

// traceTotals is a snapshot of a tracer's per-kind totals.
type traceTotals struct {
	calls, pages, busyNs, childNs, samples [numSpanKinds]int64

	spareProgs, readBatches, readBatchPages, programBatches, programBatchPages int64
}

func (t *tracer) totals() traceTotals {
	var s traceTotals
	if t == nil {
		return s
	}
	for k := range numSpanKinds {
		tot := &t.kinds[k]
		s.calls[k] = tot.calls.Load()
		s.pages[k] = tot.pages.Load()
		s.busyNs[k] = tot.busyNs.Load()
		s.childNs[k] = tot.childNs.Load()
		s.samples[k] = min(t.lat[k].n.Load(), int64(len(t.lat[k].v)))
	}
	s.spareProgs = t.spareProgs.Load()
	s.readBatches = t.readBatches.Load()
	s.readBatchPages = t.readBatchPages.Load()
	s.programBatches = t.programBatches.Load()
	s.programBatchPages = t.programBatchPage.Load()
	return s
}

func (a traceTotals) sub(b traceTotals) traceTotals {
	for k := range numSpanKinds {
		a.calls[k] -= b.calls[k]
		a.pages[k] -= b.pages[k]
		a.busyNs[k] -= b.busyNs[k]
		a.childNs[k] -= b.childNs[k]
	}
	a.spareProgs -= b.spareProgs
	a.readBatches -= b.readBatches
	a.readBatchPages -= b.readBatchPages
	a.programBatches -= b.programBatches
	a.programBatchPages -= b.programBatchPages
	return a
}

// counters is everything a window reads from the program at its edges.
type counters struct {
	dev     flash.Stats
	tel     core.Telemetry
	mallocs uint64
	gcRuns  int64
	moved   int64
	gcSimUs int64 // zero with background GC, where it cannot be read safely
	bg      gc.Stats
	pool    buffer.Stats
	trace   traceTotals
	stalls  int64
	stallNs int64
}

// snapshot reads the counters of a store, its timing wrapper (nil when
// untraced) and the kv pool stats (nil outside kv-serve).
func snapshot(s *core.Store, ts *timedStore, pool func() buffer.Stats) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		dev:     s.Stats(),
		tel:     s.Telemetry(),
		mallocs: ms.Mallocs,
		gcRuns:  s.Allocator().GCRuns(),
		bg:      s.BackgroundGCStats(),
	}
	for ch := range s.Channels() {
		c.moved += s.ChannelGC(ch).PagesMoved
	}
	if !s.BackgroundGC() {
		c.gcSimUs = s.Allocator().GCStats().TimeMicros
	}
	if pool != nil {
		c.pool = pool()
	}
	if ts != nil {
		c.trace = ts.t.totals()
		c.stalls = ts.stalls.Load()
		c.stallNs = ts.stallNs.Load()
	}
	return c
}

// sub returns a − b. Tracer sample counts stay absolute: they index the
// append-only sample sets.
func (a counters) sub(b counters) counters {
	a.dev = a.dev.Sub(b.dev)
	a.tel = subTelemetry(a.tel, b.tel)
	a.mallocs -= b.mallocs
	a.gcRuns -= b.gcRuns
	a.moved -= b.moved
	a.gcSimUs -= b.gcSimUs
	a.bg.Collected -= b.bg.Collected
	a.bg.Wakeups -= b.bg.Wakeups
	a.pool.Hits -= b.pool.Hits
	a.pool.Misses -= b.pool.Misses
	a.pool.Evictions -= b.pool.Evictions
	a.pool.Writebacks -= b.pool.Writebacks
	a.pool.Readaheads -= b.pool.Readaheads
	samples := a.trace.samples
	a.trace = a.trace.sub(b.trace)
	a.trace.samples = samples
	a.stalls -= b.stalls
	a.stallNs -= b.stallNs
	return a
}

// subTelemetry returns a − b for the Telemetry fields the metrics use.
func subTelemetry(a, b core.Telemetry) core.Telemetry {
	return core.Telemetry{
		NewBasePages:       a.NewBasePages - b.NewBasePages,
		DiffBytesWritten:   a.DiffBytesWritten - b.DiffBytesWritten,
		SyncGCFallbacks:    a.SyncGCFallbacks - b.SyncGCFallbacks,
		DiffCacheHits:      a.DiffCacheHits - b.DiffCacheHits,
		DiffCacheMisses:    a.DiffCacheMisses - b.DiffCacheMisses,
		ReadRetries:        a.ReadRetries - b.ReadRetries,
		LogicalWrites:      a.LogicalWrites - b.LogicalWrites,
		EccCorrectedBits:   a.EccCorrectedBits - b.EccCorrectedBits,
		PagesHealed:        a.PagesHealed - b.PagesHealed,
		UnrecoverablePages: a.UnrecoverablePages - b.UnrecoverablePages,
	}
}

// window is what one measured closed loop did.
type window struct {
	ops, failed int64
	clientOps   []int64
	elapsed     time.Duration
	lat         []int64 // ns, one sample per logical op
	d           counters
	freeMin     int64 // traced: fewest free blocks after a write call
	scanEntries int64 // kv-serve: entries returned by scans
	sizes       map[string]int
}

// ending is what a workload's finish measured: the read-backs, the
// flush and the Recovers after the crash.
type ending struct {
	spaceAmp float64
	heapMB   float64
	recoverS []float64   // first Recovers: the copies of the image, then the image
	flush    traceTotals // traced: the final flush (or kv Sync)
	recover  traceTotals // traced: the Recover of the image itself
	// gcUsPerRun is kv-serve's simulated GC time per collection over
	// the store's life, read once the background collector has stopped.
	gcUsPerRun float64
	// checked and failed count the pages (or keys) the two read-backs
	// read, and those that failed with a typed error.
	checked, failed int64
}

// traceSegment runs fn with the tracer on (when there is one) and
// stores the tracer totals the call added.
func traceSegment(tr *tracer, into *traceTotals, fn func() error) error {
	if tr == nil {
		return fn()
	}
	before := tr.totals()
	tr.on.Store(true)
	err := fn()
	tr.on.Store(false)
	*into = tr.totals().sub(before)
	return err
}

// recoverClones is how many copies of each crashed image finish recovers
// before the image itself. Each copy is recovered once, as the image is,
// so every time recover_s is taken from is that of a first Recover: only
// the first marks the pages the crash left obsolete, and a later Recover
// of the same image does less work. The copies give recover_s more
// samples than there are instances.
const recoverClones = 2

// cloneChip copies every programmed page of c, data and spare, onto a
// fresh chip of the same geometry.
func cloneChip(c *flash.Chip) (*flash.Chip, error) {
	p := c.Params()
	out := flash.NewChip(p)
	data, spare := make([]byte, p.DataSize), make([]byte, p.SpareSize)
	for ppn := range flash.PPN(p.NumPages()) {
		if !c.Programmed(ppn) {
			continue
		}
		if err := c.Read(ppn, data, spare); err != nil {
			return nil, err
		}
		if err := out.Program(ppn, data, spare); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recoverTimed times the Recover of recoverClones copies of the crashed
// chip and then of dev, the device over the chip itself. recover(d)
// recovers the image on d and keeps the store open; release drops a
// copy's store. The Recover of dev is the one the read-back then checks
// and, when traced, a core.recover span.
func recoverTimed(tr *tracer, e *ending, chip *flash.Chip, dev flash.Device,
	recover func(d flash.Device) error, release func()) error {
	timed := func(d flash.Device) error {
		runtime.GC()
		t0 := time.Now()
		err := recover(d)
		e.recoverS = append(e.recoverS, time.Since(t0).Seconds())
		return err
	}
	for range recoverClones {
		c, err := cloneChip(chip)
		if err != nil {
			return fmt.Errorf("copying the image: %w", err)
		}
		if err := timed(c); err != nil {
			return err
		}
		release()
	}
	if tr == nil {
		return timed(dev)
	}
	return traceSegment(tr, &e.recover, func() error {
		a := tr.begin(spanCoreRecover)
		err := timed(dev)
		tr.end(spanCoreRecover, a, 0)
		return err
	})
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a user of the system sees. A run that
// set up several instances reports the median over them, and recover_s
// as the median of every first Recover timed.
func endToEnd(ws []*window, ends []*ending, setupS float64) metrics {
	per := make([]metrics, len(ws))
	for i, w := range ws {
		ops := float64(w.ops)
		slices.Sort(w.lat)
		m := metrics{}
		m.set("ops_per_s", ops/w.elapsed.Seconds(), "1/s")
		m.set("op_p50_us", percentile(w.lat, 50), "us")
		m.set("op_p99_us", percentile(w.lat, 99), "us")
		m.set("sim_us_per_op", float64(w.d.dev.TimeMicros)/ops, "us/op")
		m.set("flash_ops_per_write", ratio(float64(w.d.dev.Writes+w.d.dev.Erases), float64(w.d.tel.LogicalWrites)), "ops/write")
		m.set("flash_reads_per_op", float64(w.d.dev.Reads)/ops, "reads/op")
		m.set("allocs_per_op", float64(w.d.mallocs)/ops, "allocs/op")
		m.set("space_amp", ends[i].spaceAmp, "ratio")
		m.set("heap_mb", ends[i].heapMB, "MB")
		per[i] = m
	}
	m := metrics{}
	for name, v := range per[0] {
		vals := make([]float64, len(per))
		for i := range per {
			vals[i] = per[i][name].Value
		}
		m.set(name, median(vals), v.Unit)
	}
	var recovers []float64
	for _, e := range ends {
		recovers = append(recovers, e.recoverS...)
	}
	m.set("recover_s", median(recovers), "s")
	m.set("setup_s", setupS, "s")
	return m
}

// perLayer computes the per-layer metrics of a traced run. Counts and
// busy times are per logical op of the window, so runs of different
// lengths compare. It also returns, for each metric that reads 0 on this
// workload because the layer is absent or cannot be measured from
// outside the program, the reason.
func perLayer(tr *tracer, w *window, e *ending, kernels metrics, single bool) (metrics, map[string]string) {
	ops := float64(w.ops)
	t := w.d.trace
	perOp := func(v int64) float64 { return float64(v) / ops }
	usPerOp := func(ns int64) float64 { return float64(ns) / 1e3 / ops }
	m := metrics{}
	notes := map[string]string{}

	m.set("flash.read.calls", perOp(t.calls[spanDevRead]), "calls/op")
	m.set("flash.read.pages", perOp(t.pages[spanDevRead]), "pages/op")
	m.set("flash.read.busy_us", usPerOp(t.busyNs[spanDevRead]), "us/op")
	m.set("flash.program.calls", perOp(t.calls[spanDevProgram]), "calls/op")
	m.set("flash.program.pages", perOp(t.pages[spanDevProgram]), "pages/op")
	m.set("flash.program.busy_us", usPerOp(t.busyNs[spanDevProgram]), "us/op")
	m.set("flash.erase.calls", perOp(t.calls[spanDevErase]), "calls/op")
	m.set("flash.erase.busy_us", usPerOp(t.busyNs[spanDevErase]), "us/op")
	m.set("flash.read_batch.width", ratio(float64(t.readBatchPages), float64(t.readBatches)), "pages/call")
	m.set("flash.program_batch.width", ratio(float64(t.programBatchPages), float64(t.programBatches)), "pages/call")

	for _, c := range []struct {
		name string
		kind uint8
	}{{"core.write", spanCoreWrite}, {"core.read", spanCoreRead}} {
		m.set(c.name+".calls", perOp(t.calls[c.kind]), "calls/op")
		m.set(c.name+".busy_us", usPerOp(t.busyNs[c.kind]), "us/op")
		if single {
			m.set(c.name+".self_us", usPerOp(t.busyNs[c.kind]-t.childNs[c.kind]), "us/op")
		} else {
			m.set(c.name+".self_us", 0, "us/op")
			notes[c.name+".self_us"] = "device calls from concurrent clients and the background collector cannot be attributed to a core call from outside the program"
		}
		m.set(c.name+".p99_us", percentile(windowSamples(tr, c.kind, t), 99), "us")
	}
	m.set("core.read.retries", perOp(w.d.tel.ReadRetries), "retries/op")
	m.set("core.flush.busy_us", float64(e.flush.busyNs[spanCoreFlush])/1e3, "us")

	tel := w.d.tel
	m.set("core.diffcache.hit_ratio", ratio(float64(tel.DiffCacheHits), float64(tel.DiffCacheHits+tel.DiffCacheMisses)), "ratio")
	m.set("core.case3_ratio", ratio(float64(tel.NewBasePages), float64(tel.LogicalWrites)), "ratio")
	m.set("core.diff_bytes_per_write", ratio(float64(tel.DiffBytesWritten), float64(tel.LogicalWrites)), "B/write")
	m.set("core.integrity.ecc_corrected_bits", float64(tel.EccCorrectedBits), "count")
	m.set("core.integrity.pages_healed", float64(tel.PagesHealed), "count")
	m.set("core.integrity.unrecoverable", float64(tel.UnrecoverablePages), "count")

	m.set("core.recover.busy_us", float64(e.recover.busyNs[spanCoreRecover])/1e3, "us")
	m.set("core.recover.pages_read", float64(e.recover.pages[spanDevRead]), "pages")
	m.set("core.recover.spare_programs", float64(e.recover.spareProgs), "programs")

	d := w.d
	m.set("ftl.gc.runs", perOp(d.gcRuns), "runs/op")
	m.set("ftl.gc.pages_moved", perOp(d.moved), "pages/op")
	m.set("ftl.gc.moved_per_run", ratio(float64(d.moved), float64(d.gcRuns)), "pages/run")
	if single {
		m.set("ftl.gc.sim_us", perOp(d.gcSimUs), "us/op")
	} else {
		m.set("ftl.gc.sim_us", e.gcUsPerRun*float64(d.gcRuns)/ops, "us/op")
		notes["ftl.gc.sim_us"] = "background collector running: the window's collections times the mean simulated cost per collection over the store's life"
	}
	m.set("ftl.gc.stalls", perOp(d.stalls), "stalls/op")
	m.set("ftl.gc.stall_us", usPerOp(d.stallNs), "us/op")
	m.set("ftl.free_blocks_min", float64(w.freeMin), "blocks")

	m.set("gc.collected", perOp(d.bg.Collected), "blocks/op")
	m.set("gc.wakeups", perOp(d.bg.Wakeups), "wakeups/op")
	m.set("gc.sync_fallbacks", perOp(tel.SyncGCFallbacks), "fallbacks/op")

	for k, v := range kernels {
		m[k] = v
	}

	pool := d.pool
	m.set("buffer.hit_ratio", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)), "ratio")
	m.set("buffer.evictions", perOp(pool.Evictions), "evictions/op")
	m.set("buffer.writebacks", perOp(pool.Writebacks), "writebacks/op")

	for _, c := range []struct {
		name string
		kind uint8
	}{{"kv.get", spanKVGet}, {"kv.put", spanKVPut}, {"kv.scan", spanKVScan}} {
		s := windowSamples(tr, c.kind, t)
		m.set(c.name+".calls", perOp(t.calls[c.kind]), "calls/op")
		m.set(c.name+".p50_us", percentile(s, 50), "us")
		m.set(c.name+".p99_us", percentile(s, 99), "us")
	}
	m.set("kv.scan.entries", ratio(float64(w.scanEntries), float64(t.calls[spanKVScan])), "entries/scan")

	for k, v := range m {
		if _, ok := notes[k]; !ok && v.Value == 0 {
			notes[k] = "nothing of this kind happened during the window"
		}
	}
	if single {
		for _, k := range []string{"gc.collected", "gc.wakeups", "gc.sync_fallbacks"} {
			notes[k] = "no background collector on this workload (foreground GC)"
		}
		for _, k := range []string{"buffer.hit_ratio", "buffer.evictions", "buffer.writebacks",
			"kv.get.calls", "kv.get.p50_us", "kv.get.p99_us", "kv.put.calls", "kv.put.p50_us",
			"kv.put.p99_us", "kv.scan.calls", "kv.scan.p50_us", "kv.scan.p99_us", "kv.scan.entries"} {
			notes[k] = "no kv layer on this workload"
		}
	}
	return m, notes
}

// windowSamples returns the ascending latency samples of kind k recorded
// during the window (the sets are append-only; t.samples is their length
// at the window's end).
func windowSamples(tr *tracer, k uint8, t traceTotals) []int64 {
	s := &tr.lat[k]
	if s.v == nil {
		return nil
	}
	out := append([]int64(nil), s.v[:t.samples[k]]...)
	slices.Sort(out)
	return out
}
