package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pdl/internal/core"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/kv"
	"pdl/internal/ycsb"
)

// kv-serve sizes. 200k records of 100 B are about 20x the 8 x 64 pool
// pages of the default kv.Options.
const (
	kvClients      = 2 // one per core of the 2-core reference host
	kvRecords      = 200_000
	kvValueSize    = 100
	kvFill         = 0.5    // database share of flash pages
	kvWarmRounds   = 0.5    // age until half the blocks were collected once on average
	kvWarmOps      = 20_000 // then warm the pools with this many mix ops per client
	kvScanMax      = 100
	kvLoadBatch    = 500
	kvReadBackSpan = 10_000
	kvCheckEvery   = 256 // warm-up checks GC progress every this many ops
)

// kvRun is a set-up kv-serve workload: the kv store over a PDL store
// with two shards and background GC, and the model: the version of
// every key's value (values are a function of seed, key and version).
type kvRun struct {
	chip     *flash.Chip
	dev      flash.Device
	opts     core.Options
	store    *core.Store
	method   ftl.Method
	db       *kv.DB
	tr       *tracer
	ts       *timedStore
	seed     int64
	numPages uint32

	ver  []uint32 // model: version of each key's current value
	lost []bool   // keys whose last Put failed with a typed error
	zipf *ycsb.Zipfian
}

// kvClient is one closed-loop client. It owns the keys [lo, hi), so
// every value it reads can be checked exactly against the model.
type kvClient struct {
	id          int
	lo, hi      int
	rng         *rand.Rand
	lat         []int64
	ops, failed int64
	scanEntries int64
	buf, val    []byte
	scanK       []uint64
	scanV       [][]byte
}

func setupKV(seed int64, tr *tracer) (instance, error) {
	r := &kvRun{seed: seed, tr: tr}
	ps := flash.DefaultDataSize
	r.numPages = kv.PagesNeeded(kvRecords, kvValueSize, ps, kv.Options{})
	p := flash.DefaultParams()
	p.NumBlocks = int(float64(r.numPages)/kvFill)/p.PagesPerBlock + 1
	r.chip = flash.NewChip(p)
	r.dev = r.chip
	if tr != nil {
		r.dev = &timedDevice{d: r.chip, t: tr}
	}
	r.opts = core.Options{Shards: kvClients, BackgroundGC: true}
	s, err := core.New(r.dev, int(r.numPages), r.opts)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	r.attach(s)
	if r.db, err = kv.Open(r.method, r.numPages, kv.Options{}); err != nil {
		s.Close()
		return nil, fmt.Errorf("opening kv: %w", err)
	}
	r.ver = make([]uint32, kvRecords)
	r.lost = make([]bool, kvRecords)
	r.zipf = ycsb.NewZipfian(kvRecords/kvClients, zipfTheta)

	// Load every record, then rewrite them all until the background
	// collector has cycled through the chip: bulk rewrites age the flash
	// far faster than the pool-absorbed mix would.
	for pass := uint32(0); pass == 0 || s.Allocator().MeanVictimRounds() < kvWarmRounds; pass++ {
		if err := r.load(pass); err != nil {
			s.Close()
			return nil, fmt.Errorf("loading: %w", err)
		}
	}
	if err := r.db.Sync(); err != nil {
		s.Close()
		return nil, fmt.Errorf("loading: %w", err)
	}
	if _, err := r.runClients(streamWarm, func(c *kvClient, _ time.Duration) bool {
		return c.ops < kvWarmOps
	}); err != nil {
		s.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// load writes every record at version ver, in key order, as PutBatches.
func (r *kvRun) load(ver uint32) error {
	batch := make([]kv.Entry, 0, kvLoadBatch)
	for lo := 0; lo < kvRecords; lo += kvLoadBatch {
		batch = batch[:0]
		for k := lo; k < min(lo+kvLoadBatch, kvRecords); k++ {
			batch = append(batch, kv.Entry{Key: uint64(k), Value: r.value(nil, k, ver)})
		}
		if err := r.db.PutBatch(batch); err != nil {
			return err
		}
	}
	for k := range r.ver {
		r.ver[k] = ver
	}
	return nil
}

// close stops the store's background collector and drops the stores.
// Stopping the collector writes nothing, so it also serves as the crash.
func (r *kvRun) close() {
	if r.store != nil {
		r.store.Close()
	}
	r.store, r.method, r.ts, r.db = nil, nil, nil, nil
}

func (r *kvRun) attach(s *core.Store) {
	r.store = s
	r.method = s
	if r.tr != nil {
		r.ts = newTimedStore(s, r.tr)
		r.method = r.ts
	}
}

// value fills dst with the value of key k at version v.
func (r *kvRun) value(dst []byte, k int, v uint32) []byte {
	dst = dst[:0]
	x := uint64(r.seed)*0x9e3779b97f4a7c15 ^ uint64(k)<<32 ^ uint64(v)
	var w [8]byte
	for len(dst) < kvValueSize {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(w[:], z^z>>31)
		dst = append(dst, w[:min(8, kvValueSize-len(dst))]...)
	}
	return dst
}

// typedKV reports whether err is a typed failure the benchmark counts.
// A missing key is not one: every key was loaded, so it is a wrong answer.
func typedKV(err error) bool {
	return typed(err) || errors.Is(err, kv.ErrFull) || errors.Is(err, kv.ErrValueTooLarge)
}

// runClients runs kvClients closed loops on the inputs of stream until
// more returns false for each, and returns the clients.
func (r *kvRun) runClients(stream int64, more func(c *kvClient, elapsed time.Duration) bool) ([]*kvClient, error) {
	clients := make([]*kvClient, kvClients)
	errs := make([]error, kvClients)
	half := kvRecords / kvClients
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		c := &kvClient{
			id: i, lo: i * half, hi: (i + 1) * half,
			rng: rand.New(rand.NewSource((r.seed*16+stream)*8 + int64(i))),
			lat: make([]int64, 0, 1<<19),
			// Get returns the value in buf when buf can also hold the
			// record's key prefix.
			buf: make([]byte, 0, 2*kvValueSize), val: make([]byte, 0, kvValueSize),
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more(c, time.Since(start)) {
				ns, err := r.op(c)
				c.ops++
				if err != nil {
					if !typedKV(err) {
						errs[c.id] = err
						return
					}
					c.failed++
				}
				c.lat = append(c.lat, ns)
			}
		}()
	}
	wg.Wait()
	return clients, errors.Join(errs...)
}

// op is one kv-serve operation: 50 % Get, 45 % Put, 5 % Scan of 1-100
// entries, on a scrambled-zipfian key of the client's half.
func (r *kvRun) op(c *kvClient) (int64, error) {
	k := c.lo + int(ycsb.Scramble(r.zipf.Next(c.rng))%uint64(c.hi-c.lo))
	switch x := c.rng.Intn(100); {
	case x < 50:
		a := r.begin(spanKVGet)
		t0 := time.Now()
		v, err := r.db.Get(uint64(k), c.buf)
		ns := int64(time.Since(t0))
		r.end(spanKVGet, a)
		if err != nil {
			return ns, err
		}
		return ns, r.checkValue(c, k, v)
	case x < 95:
		ver := r.ver[k] + 1
		c.val = r.value(c.val, k, ver)
		a := r.begin(spanKVPut)
		t0 := time.Now()
		err := r.db.Put(uint64(k), c.val)
		ns := int64(time.Since(t0))
		r.end(spanKVPut, a)
		if err == nil {
			r.ver[k], r.lost[k] = ver, false
		} else if typedKV(err) {
			r.lost[k] = true
		}
		return ns, err
	default:
		limit := 1 + c.rng.Intn(kvScanMax)
		c.scanK, c.scanV = c.scanK[:0], c.scanV[:0]
		a := r.begin(spanKVScan)
		t0 := time.Now()
		err := r.db.Scan(uint64(k), uint64(c.hi-1), limit, func(key uint64, v []byte) bool {
			c.scanK = append(c.scanK, key)
			c.scanV = append(c.scanV, v)
			return true
		})
		ns := int64(time.Since(t0))
		r.end(spanKVScan, a)
		if err != nil {
			return ns, err
		}
		c.scanEntries += int64(len(c.scanK))
		if want := min(limit, c.hi-k); len(c.scanK) != want {
			return ns, mismatchf("scan from key %d limit %d returned %d entries, want %d", k, limit, len(c.scanK), want)
		}
		for i, key := range c.scanK {
			if key != uint64(k+i) {
				return ns, mismatchf("scan from key %d returned key %d at %d", k, key, i)
			}
			if err := r.checkValue(c, int(key), c.scanV[i]); err != nil {
				return ns, err
			}
		}
		return ns, nil
	}
}

func (r *kvRun) checkValue(c *kvClient, k int, got []byte) error {
	if r.lost[k] {
		return nil
	}
	c.val = r.value(c.val, k, r.ver[k])
	if string(got) != string(c.val) {
		return mismatchf("key %d differs from the model (version %d)", k, r.ver[k])
	}
	return nil
}

// notTraced marks a kv call made while tracing is off.
const notTraced = -2

// begin and end time a kv call as a span when tracing is on.
func (r *kvRun) begin(k uint8) active {
	if r.tr == nil || !r.tr.on.Load() {
		return active{idx: notTraced}
	}
	return r.tr.begin(k)
}

func (r *kvRun) end(k uint8, a active) {
	if a.idx != notTraced {
		r.tr.end(k, a, 1)
	}
}

func (r *kvRun) counters() counters { return snapshot(r.store, r.ts, r.db.PoolStats) }

func (r *kvRun) measure(stop stopRule) (*window, error) {
	if r.tr != nil {
		r.tr.on.Store(true)
		defer r.tr.on.Store(false)
	}
	before := r.counters()
	start := time.Now()
	clients, err := r.runClients(streamMeasure, func(c *kvClient, elapsed time.Duration) bool {
		return stop.more(c.id, c.ops, elapsed)
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	w := &window{elapsed: elapsed, clientOps: make([]int64, kvClients)}
	for i, c := range clients {
		w.ops += c.ops
		w.failed += c.failed
		w.clientOps[i] = c.ops
		w.scanEntries += c.scanEntries
		w.lat = append(w.lat, c.lat...)
	}
	w.d = r.counters().sub(before)
	if r.ts != nil {
		w.freeMin = r.ts.freeMin.Load()
	}
	w.sizes = map[string]int{
		"flash_blocks":     r.chip.Params().NumBlocks,
		"logical_pages":    int(r.numPages),
		"records":          kvRecords,
		"value_bytes":      kvValueSize,
		"buckets":          r.db.Buckets(),
		"diff_cache_pages": diffCachePages,
		"clients":          kvClients,
	}
	return w, nil
}

// readBack scans every key in spans, compares it with the model and adds
// the keys it read, and those that failed with a typed error, to e. A
// span whose scan fails with a typed error is read again key by key, so
// the rest of it is still compared. A key that fails is marked lost. A
// lost key may later be missing; any other missing key is a wrong answer.
func (r *kvRun) readBack(e *ending) error {
	c := &kvClient{buf: make([]byte, 0, 2*kvValueSize), val: make([]byte, 0, kvValueSize)}
	for lo := 0; lo < kvRecords; lo += kvReadBackSpan {
		hi := min(lo+kvReadBackSpan, kvRecords) - 1
		next := lo
		var missing int64 // lost keys the scan did not return
		var bad error
		err := r.db.Scan(uint64(lo), uint64(hi), 0, func(k uint64, v []byte) bool {
			for ; next < int(k) && r.lost[next]; next++ {
				missing++
			}
			if k != uint64(next) {
				bad = mismatchf("read-back found key %d where key %d belongs", k, next)
				return false
			}
			next++
			bad = r.checkValue(c, int(k), v)
			return bad == nil
		})
		switch {
		case bad != nil:
			return bad
		case typedKV(err):
			if err := r.readBackKeys(e, c, lo, hi); err != nil {
				return err
			}
			continue
		case err != nil:
			return fmt.Errorf("read-back: %w", err)
		}
		for ; next <= hi && r.lost[next]; next++ {
			missing++
		}
		if next != hi+1 {
			return mismatchf("read-back of keys %d-%d stopped at %d", lo, hi, next)
		}
		e.checked += int64(hi + 1 - lo)
		e.failed += missing
	}
	return nil
}

// readBackKeys reads the keys lo..hi one by one, after their span's scan
// failed.
func (r *kvRun) readBackKeys(e *ending, c *kvClient, lo, hi int) error {
	for k := lo; k <= hi; k++ {
		e.checked++
		v, err := r.db.Get(uint64(k), c.buf)
		switch {
		case typedKV(err) || r.lost[k] && errors.Is(err, kv.ErrNotFound):
			e.failed++
			r.lost[k] = true
		case errors.Is(err, kv.ErrNotFound):
			return mismatchf("key %d was written but is missing", k)
		case err != nil:
			return fmt.Errorf("read-back of key %d: %w", k, err)
		default:
			if err := r.checkValue(c, k, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish reads every key back, Syncs, records the live heap of the kv
// store and the PDL store, crashes them (the background collector stops;
// nothing else is written), times Recover plus kv.Reopen of copies of the
// image and of the image itself, and compares every key of the recovered
// image.
func (r *kvRun) finish() (*ending, error) {
	defer r.close()
	e := &ending{}
	if err := r.readBack(e); err != nil {
		return nil, err
	}
	if err := traceSegment(r.tr, &e.flush, r.db.Sync); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	e.spaceAmp = float64(int(r.numPages)+r.store.ValidDifferentialPages()) / float64(r.numPages)
	withStore := liveHeap()
	if err := r.store.Close(); err != nil {
		return nil, fmt.Errorf("background GC: %w", err)
	}
	e.gcUsPerRun = ratio(float64(r.store.Allocator().GCStats().TimeMicros), float64(r.store.Allocator().GCRuns()))
	r.close()
	e.heapMB = float64(int64(withStore)-int64(liveHeap())) / (1 << 20)

	err := recoverTimed(r.tr, e, r.chip, r.dev, func(d flash.Device) error {
		s, err := core.Recover(d, int(r.numPages), r.opts)
		if err != nil {
			return err
		}
		r.attach(s)
		r.db, err = kv.Reopen(r.method, r.numPages, kv.Options{})
		return err
	}, r.close)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if err := r.readBack(e); err != nil {
		return nil, fmt.Errorf("after recover: %w", err)
	}
	return e, nil
}
