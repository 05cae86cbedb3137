package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"pdl/internal/core"
	"pdl/internal/flash"
)

// ReadPoint is one measured mode of the hot-read experiment: the same
// read-mostly workload over a diff-bearing database, with PDL_Reading's
// second flash read either paid on every read ("cache-off", the paper's
// algorithm), absorbed by the differential-page cache ("cache-on"), or
// additionally batched through Store.ReadBatch ("batch").
type ReadPoint struct {
	// Mode is "cache-off", "cache-on", or "batch".
	Mode string
	// Ops is the number of logical page reads measured.
	Ops int64
	// Elapsed is the host wall-clock time of the measured phase.
	Elapsed time.Duration
	// P50 and P99 are per-read wall-clock latencies (for the batch mode,
	// the batch latency amortized over its pages).
	P50, P99 time.Duration
	// Flash is the device-stats delta of the measured phase; Flash.Reads
	// divided by Ops is the headline column.
	Flash flash.Stats
	// CacheHits and CacheMisses are the differential-page cache
	// telemetry deltas.
	CacheHits, CacheMisses int64
	// BatchReads and BatchedReads are the device read-batch telemetry
	// deltas (zero outside the batch mode).
	BatchReads, BatchedReads int64
}

// ReadsPerOp returns physical device reads per logical page read — the
// paper's at-most-two-page-reading cost, which the cache cuts toward one.
func (p ReadPoint) ReadsPerOp() float64 {
	if p.Ops == 0 {
		return 0
	}
	return float64(p.Flash.Reads) / float64(p.Ops)
}

// OpsPerSecond returns logical reads per wall-clock second.
func (p ReadPoint) OpsPerSecond() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Ops) / p.Elapsed.Seconds()
}

// SimMicrosPerOp returns simulated flash I/O time per logical read: the
// deterministic, hardware-independent throughput measure (Tread per
// device read at the datasheet latency).
func (p ReadPoint) SimMicrosPerOp() float64 {
	if p.Ops == 0 {
		return 0
	}
	return float64(p.Flash.TimeMicros) / float64(p.Ops)
}

// ExpRead measures the read pipeline end to end. Each mode builds an
// identical database in which every logical page carries a flushed
// differential (the paper's worst case for reading: base page + diff page
// on every cold read), then serves the identical hot random-read workload;
// what changes is only how the differential half of PDL_Reading is paid.
// The hot set is capped so its differential pages fit the default
// differential-page cache, modeling a hot working set over a larger database.
// modes selects which of "cache-off", "cache-on", "batch" run (all three
// when empty).
func ExpRead(g Geometry, maxDiff, ops, batchSize int, modes ...string) ([]ReadPoint, error) {
	if len(modes) == 0 {
		modes = []string{"cache-off", "cache-on", "batch"}
	}
	var points []ReadPoint
	for _, mode := range modes {
		pt, err := runReadPoint(g, mode, maxDiff, ops, batchSize)
		if err != nil {
			return nil, fmt.Errorf("bench: read %s: %w", mode, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

func runReadPoint(g Geometry, mode string, maxDiff, ops, batchSize int) (ReadPoint, error) {
	numPages := g.NumPages()
	dev, err := g.device(g.Params, "read-"+mode)
	if err != nil {
		return ReadPoint{}, err
	}
	defer dev.Close()
	opts := core.Options{
		MaxDifferentialSize: maxDiff,
		ReserveBlocks:       2,
	}
	if mode == "cache-off" {
		opts.DiffCachePages = core.DiffCacheOff
	}
	switch mode {
	case "cache-off", "cache-on", "batch":
	default:
		return ReadPoint{}, fmt.Errorf("unknown read mode %q", mode)
	}
	s, err := core.New(dev, numPages, opts)
	if err != nil {
		return ReadPoint{}, err
	}
	size := s.PageSize()

	// Load every page, then give every page a small update and flush, so
	// each pid's current content is base page + flushed differential.
	rng := rand.New(rand.NewSource(g.Seed))
	page := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		rng.Read(page)
		if err := s.WritePage(uint32(pid), page); err != nil {
			return ReadPoint{}, err
		}
	}
	for pid := 0; pid < numPages; pid++ {
		if err := s.ReadPage(uint32(pid), page); err != nil {
			return ReadPoint{}, err
		}
		off := rng.Intn(size - 16)
		rng.Read(page[off : off+16])
		if err := s.WritePage(uint32(pid), page); err != nil {
			return ReadPoint{}, err
		}
	}
	if err := s.Flush(); err != nil {
		return ReadPoint{}, err
	}

	// The hot set: capped so its differential pages fit the default cache.
	hot := numPages
	if hot > 2048 {
		hot = 2048
	}

	if batchSize < 2 {
		batchSize = 2
	}
	if batchSize > hot {
		batchSize = hot
	}

	dev.ResetStats()
	telBefore := s.Telemetry()
	lats := make([]time.Duration, 0, ops)
	start := time.Now()
	var measured int64
	switch mode {
	case "batch":
		pids := make([]uint32, batchSize)
		bufs := make([][]byte, batchSize)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		for measured < int64(ops) {
			for i := range pids {
				pids[i] = uint32(rng.Intn(hot))
			}
			t0 := time.Now()
			if err := s.ReadBatch(pids, bufs); err != nil {
				return ReadPoint{}, err
			}
			per := time.Since(t0) / time.Duration(batchSize)
			for range pids {
				lats = append(lats, per)
			}
			measured += int64(batchSize)
		}
	default:
		for measured < int64(ops) {
			pid := uint32(rng.Intn(hot))
			t0 := time.Now()
			if err := s.ReadPage(pid, page); err != nil {
				return ReadPoint{}, err
			}
			lats = append(lats, time.Since(t0))
			measured++
		}
	}
	elapsed := time.Since(start)
	tel := s.Telemetry()
	if err := s.Close(); err != nil {
		return ReadPoint{}, err
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p int) time.Duration {
		i := len(lats) * p / 100
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return ReadPoint{
		Mode:         mode,
		Ops:          measured,
		Elapsed:      elapsed,
		P50:          pct(50),
		P99:          pct(99),
		Flash:        dev.Stats(),
		CacheHits:    tel.DiffCacheHits - telBefore.DiffCacheHits,
		CacheMisses:  tel.DiffCacheMisses - telBefore.DiffCacheMisses,
		BatchReads:   tel.BatchReads - telBefore.BatchReads,
		BatchedReads: tel.BatchedReads - telBefore.BatchedReads,
	}, nil
}

// WriteReadTable prints the hot-read comparison.
func WriteReadTable(w io.Writer, points []ReadPoint) {
	fmt.Fprintf(w, "%-10s %10s %10s %12s %10s %10s %10s %10s %10s\n",
		"mode", "ops", "reads/op", "sim-us/op", "ops/s", "p50-us", "p99-us", "hits", "misses")
	for _, p := range points {
		fmt.Fprintf(w, "%-10s %10d %10.2f %12.1f %10.0f %10.1f %10.1f %10d %10d\n",
			p.Mode, p.Ops, p.ReadsPerOp(), p.SimMicrosPerOp(), p.OpsPerSecond(),
			float64(p.P50.Nanoseconds())/1000,
			float64(p.P99.Nanoseconds())/1000,
			p.CacheHits, p.CacheMisses)
	}
}
