package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ycsb"
)

// Sizes shared by the page workloads. The chip is the paper's Table 1
// part cut to 512 blocks (64 MB of data area).
const (
	pageBlocks      = 512
	pageMaxDiff     = 256  // PDL(256B)
	updateFrac      = 0.02 // each update overwrites one contiguous 2 % run
	updateFill      = 0.8  // page-update database, share of flash pages
	readFill        = 0.4  // page-read database, share of flash pages
	conditionRounds = 3    // page-update conditions until every block was a victim ~3 times
	batchPages      = 8    // ReadBatch / WriteBatch width in page-read
	zipfTheta       = 0.99
	readBackChunk   = 64
)

// pageAPI is what the page workloads call: the store itself, or the
// timing wrapper around it.
type pageAPI interface {
	ReadPage(pid uint32, buf []byte) error
	ReadBatch(pids []uint32, bufs [][]byte) error
	WritePage(pid uint32, data []byte) error
	WriteBatch(writes []ftl.PageWrite) error
	Flush() error
}

// pageRun is one set-up page workload: a PDL store on an emulated chip
// and a model holding every logical page's expected content.
type pageRun struct {
	chip  *flash.Chip
	dev   flash.Device
	opts  core.Options
	store *core.Store
	api   pageAPI
	tr    *tracer
	ts    *timedStore
	seed  int64

	n, ps int
	model []byte        // n pages, pid-major
	lost  map[int]bool  // pids whose last write failed with a typed error
	rng   *rand.Rand    // inputs of the current phase
	zipf  *ycsb.Zipfian // page-read's pid chooser
	call  func(p *pageRun) (ops int, ns int64, err error)

	buf       []byte
	pids      []uint32
	bufs      [][]byte
	writes    []ftl.PageWrite
	readPages int64 // page-read schedule: pages read and written so far
	wrotePage int64
	single    bool // page-read alternates ReadPage and ReadBatch
}

// Input streams. Each phase draws from its own generator so the measured
// operations do not depend on how long set-up ran.
const (
	streamLoad = iota + 1
	streamWarm
	streamMeasure
)

func newPageRun(seed int64, fill float64, tr *tracer) (*pageRun, error) {
	chip := flash.NewChip(flash.ScaledParams(pageBlocks))
	p := &pageRun{chip: chip, dev: chip, tr: tr, seed: seed, opts: core.Options{MaxDifferentialSize: pageMaxDiff}}
	if tr != nil {
		p.dev = &timedDevice{d: chip, t: tr}
	}
	p.ps = chip.Params().DataSize
	p.n = int(fill * float64(chip.Params().NumPages()))
	s, err := core.New(p.dev, p.n, p.opts)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	p.attach(s)
	p.model = make([]byte, p.n*p.ps)
	p.lost = map[int]bool{}
	p.buf = make([]byte, p.ps)
	p.pids = make([]uint32, batchPages)
	p.bufs = make([][]byte, batchPages)
	p.writes = make([]ftl.PageWrite, batchPages)
	for i := range p.bufs {
		p.bufs[i] = make([]byte, p.ps)
	}

	p.rng = rand.New(rand.NewSource(p.seedOf(streamLoad)))
	p.rng.Read(p.model)
	for pid := range p.n {
		if err := p.api.WritePage(uint32(pid), p.page(pid)); err != nil {
			return nil, fmt.Errorf("loading page %d: %w", pid, err)
		}
	}
	return p, p.api.Flush()
}

func (p *pageRun) attach(s *core.Store) {
	p.store = s
	p.api = s
	if p.tr != nil {
		p.ts = newTimedStore(s, p.tr)
		p.api = p.ts
	}
}

// close drops the store; with foreground GC it owns no goroutine.
func (p *pageRun) close() { p.store, p.api, p.ts = nil, nil, nil }

func (p *pageRun) page(pid int) []byte { return p.model[pid*p.ps : (pid+1)*p.ps] }

// check compares a page read back with the model.
func (p *pageRun) check(pid uint32, got []byte) error {
	if p.lost[int(pid)] || bytes.Equal(got, p.page(int(pid))) {
		return nil
	}
	return mismatchf("page %d differs from the model", pid)
}

// typed reports whether err is a typed per-page failure, which the
// benchmark counts instead of aborting.
func typed(err error) bool {
	var pe *ftl.PageError
	return errors.As(err, &pe)
}

// mutate overwrites one contiguous update run of img with fresh bytes.
func (p *pageRun) mutate(img []byte) {
	n := int(updateFrac * float64(p.ps))
	off := p.rng.Intn(p.ps - n + 1)
	p.rng.Read(img[off : off+n])
}

// updateOp is page-update's operation, the paper's update: ReadPage,
// overwrite one run, WritePage, on a uniformly chosen pid. Its latency
// is the two store calls; the model check between them is not timed.
func updateOp(p *pageRun) (int, int64, error) {
	pid := uint32(p.rng.Intn(p.n))
	t0 := time.Now()
	err := p.api.ReadPage(pid, p.buf)
	ns := int64(time.Since(t0))
	if err != nil {
		return 1, ns, err
	}
	if err := p.check(pid, p.buf); err != nil {
		return 1, ns, err
	}
	p.mutate(p.buf)
	t0 = time.Now()
	err = p.api.WritePage(pid, p.buf)
	ns += int64(time.Since(t0))
	if err == nil {
		copy(p.page(int(pid)), p.buf)
	} else if typed(err) {
		p.lost[int(pid)] = true
	}
	return 1, ns, err
}

// zipfPid draws a pid from the scrambled zipfian distribution.
func (p *pageRun) zipfPid() uint32 {
	return uint32(ycsb.Scramble(p.zipf.Next(p.rng)) % uint64(p.n))
}

// readMixCall is one call of page-read's mix: a WriteBatch of 8 whenever
// updates have fallen below 5 % of the pages moved, otherwise a read,
// alternating between ReadPage and ReadBatch of 8. Every page of a call
// waits for the whole call, so each counts as one op of that latency.
func readMixCall(p *pageRun) (int, int64, error) {
	if p.wrotePage*19 < p.readPages {
		return p.updateBatch()
	}
	p.single = !p.single
	if p.single {
		pid := p.zipfPid()
		t0 := time.Now()
		err := p.api.ReadPage(pid, p.buf)
		ns := int64(time.Since(t0))
		p.readPages++
		if err != nil {
			return 1, ns, err
		}
		return 1, ns, p.check(pid, p.buf)
	}
	for i := range p.pids {
		p.pids[i] = p.zipfPid()
	}
	t0 := time.Now()
	err := p.api.ReadBatch(p.pids, p.bufs)
	ns := int64(time.Since(t0))
	p.readPages += batchPages
	if err != nil {
		return batchPages, ns, err
	}
	for i, pid := range p.pids {
		if err := p.check(pid, p.bufs[i]); err != nil {
			return batchPages, ns, err
		}
	}
	return batchPages, ns, nil
}

// updateBatch writes 8 zipfian pids, each with one run overwritten, as
// one WriteBatch. A pid drawn twice builds on its earlier image in the
// batch, as serial writes would.
func (p *pageRun) updateBatch() (int, int64, error) {
	for i := range p.writes {
		pid := p.zipfPid()
		src := p.page(int(pid))
		for j := i - 1; j >= 0; j-- {
			if p.writes[j].PID == pid {
				src = p.bufs[j]
				break
			}
		}
		copy(p.bufs[i], src)
		p.mutate(p.bufs[i])
		p.writes[i] = ftl.PageWrite{PID: pid, Data: p.bufs[i]}
	}
	t0 := time.Now()
	err := p.api.WriteBatch(p.writes)
	ns := int64(time.Since(t0))
	p.wrotePage += batchPages
	for _, w := range p.writes {
		if err == nil {
			copy(p.page(int(w.PID)), w.Data)
		} else if typed(err) {
			p.lost[int(w.PID)] = true
		}
	}
	return batchPages, ns, err
}

// measure runs the closed loop until stop says so, from a generator of
// its own, and returns the window's counters.
func (p *pageRun) measure(stop stopRule) (*window, error) {
	p.rng = rand.New(rand.NewSource(p.seedOf(streamMeasure)))
	p.readPages, p.wrotePage, p.single = 0, 0, false
	lat := make([]int64, 0, 1<<20)
	if p.tr != nil {
		p.tr.on.Store(true)
		defer p.tr.on.Store(false)
	}
	before := p.counters()
	start := time.Now()
	var ops, failed int64
	for stop.more(0, ops, time.Since(start)) {
		n, ns, err := p.call(p)
		if err != nil {
			if !typed(err) {
				return nil, err
			}
			failed += int64(n)
		}
		ops += int64(n)
		for range n {
			lat = append(lat, ns)
		}
	}
	w := &window{elapsed: time.Since(start), ops: ops, failed: failed, clientOps: []int64{ops}, lat: lat}
	w.d = p.counters().sub(before)
	if p.ts != nil {
		w.freeMin = p.ts.freeMin.Load()
	}
	w.sizes = map[string]int{
		"flash_blocks":     pageBlocks,
		"logical_pages":    p.n,
		"diff_cache_pages": diffCachePages,
		"max_diff_bytes":   pageMaxDiff,
	}
	return w, nil
}

// seedOf derives the generator seed of one input stream.
func (p *pageRun) seedOf(stream int64) int64 { return p.seed*16 + stream }

func (p *pageRun) counters() counters { return snapshot(p.store, p.ts, nil) }

// readBack compares every page the store serves with the model and adds
// the pages it read, and those that failed with a typed error, to e. A
// chunk that fails is read again page by page, so the rest of it is still
// compared. A page that fails is marked lost. Recover drops a page it
// cannot read, so a lost page may later read as never written; any other
// page that does is a wrong answer.
func (p *pageRun) readBack(e *ending) error {
	pids := make([]uint32, readBackChunk)
	bufs := make([][]byte, readBackChunk)
	for i := range bufs {
		bufs[i] = make([]byte, p.ps)
	}
	for lo := 0; lo < p.n; lo += readBackChunk {
		k := min(readBackChunk, p.n-lo)
		for i := range k {
			pids[i] = uint32(lo + i)
		}
		batchErr := p.api.ReadBatch(pids[:k], bufs[:k])
		if batchErr != nil && !typed(batchErr) && !errors.Is(batchErr, ftl.ErrNotWritten) {
			return fmt.Errorf("read-back: %w", batchErr)
		}
		e.checked += int64(k)
		for i, pid := range pids[:k] {
			if batchErr != nil {
				err := p.api.ReadPage(pid, bufs[i])
				switch {
				case typed(err) || p.lost[int(pid)] && errors.Is(err, ftl.ErrNotWritten):
					e.failed++
					p.lost[int(pid)] = true
					continue
				case errors.Is(err, ftl.ErrNotWritten):
					return mismatchf("page %d was written but reads as never written", pid)
				case err != nil:
					return fmt.Errorf("read-back of page %d: %w", pid, err)
				}
			}
			if err := p.check(pid, bufs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish reads every page back, flushes, records the store's live heap,
// drops the store without closing it (a crash), times the Recover of
// copies of the image and of the image itself, and compares every page
// of the recovered image.
func (p *pageRun) finish() (*ending, error) {
	e := &ending{}
	if err := p.readBack(e); err != nil {
		return nil, err
	}
	if err := traceSegment(p.tr, &e.flush, p.api.Flush); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	e.spaceAmp = float64(p.n+p.store.ValidDifferentialPages()) / float64(p.n)
	withStore := liveHeap()
	p.close()
	e.heapMB = float64(int64(withStore)-int64(liveHeap())) / (1 << 20)

	err := recoverTimed(p.tr, e, p.chip, p.dev, func(d flash.Device) error {
		s, err := core.Recover(d, p.n, p.opts)
		if err == nil {
			p.attach(s)
		}
		return err
	}, p.close)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if err := p.readBack(e); err != nil {
		return nil, fmt.Errorf("after recover: %w", err)
	}
	return e, nil
}

func setupPageUpdate(seed int64, tr *tracer) (instance, error) {
	p, err := newPageRun(seed, updateFill, tr)
	if err != nil {
		return nil, err
	}
	p.call = updateOp
	p.rng = rand.New(rand.NewSource(p.seedOf(streamWarm)))
	for p.store.Allocator().MeanVictimRounds() < conditionRounds {
		if _, _, err := updateOp(p); err != nil {
			return nil, fmt.Errorf("conditioning: %w", err)
		}
	}
	return p, nil
}

// pageReadWarmReads is how many pages page-read's set-up reads, after
// its update warm-up, so the decoded-diff cache is warm when timing
// starts.
const pageReadWarmReads = 100_000

func setupPageRead(seed int64, tr *tracer) (instance, error) {
	p, err := newPageRun(seed, readFill, tr)
	if err != nil {
		return nil, err
	}
	p.zipf = ycsb.NewZipfian(uint64(p.n), zipfTheta)
	p.call = readMixCall
	p.rng = rand.New(rand.NewSource(p.seedOf(streamWarm)))
	for w := 0; w < p.n; w += batchPages {
		if _, _, err := p.updateBatch(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for p.readPages < pageReadWarmReads {
		if _, _, err := readMixCall(p); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return p, nil
}
