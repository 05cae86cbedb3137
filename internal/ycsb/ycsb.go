// Package ycsb drives the kv serving layer with the Yahoo! Cloud
// Serving Benchmark's core workload mixes (Cooper et al., SoCC 2010):
// configurable proportions of reads, updates, inserts, scans, and
// read-modify-writes over zipfian, uniform, or latest request
// distributions, issued by many client goroutines with per-operation
// latency recording. It is the serving-layer counterpart of the
// page-level experiments in internal/bench: where those measure the
// method under raw page traffic, this measures it under the access
// pattern a key-value service actually produces.
//
// The six core workloads A-F are built in; the record count, operation
// budget, client count, and value size all scale from smoke-test to
// millions of keys without changing the mix definitions.
package ycsb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pdl/internal/kv"
	"pdl/internal/latency"
)

// Workload is one operation mix over one request distribution. The
// proportions must sum to 1.
type Workload struct {
	// Name labels the mix ("A".."F" for the core workloads).
	Name string
	// ReadProp..RMWProp are the operation mix.
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	ScanProp   float64
	RMWProp    float64
	// Distribution selects which existing key an operation targets:
	// "zipfian" (scrambled, theta from Config), "uniform", or "latest"
	// (zipfian toward the most recently inserted keys).
	Distribution string
}

// CoreWorkloads returns the six YCSB core workloads:
//
//	A  update heavy   50% read / 50% update,  zipfian
//	B  read mostly    95% read /  5% update,  zipfian
//	C  read only     100% read,               zipfian
//	D  read latest    95% read /  5% insert,  latest
//	E  short ranges   95% scan /  5% insert,  uniform
//	F  read-mod-write 50% read / 50% rmw,     zipfian
func CoreWorkloads() []Workload {
	return []Workload{
		{Name: "A", ReadProp: 0.5, UpdateProp: 0.5, Distribution: "zipfian"},
		{Name: "B", ReadProp: 0.95, UpdateProp: 0.05, Distribution: "zipfian"},
		{Name: "C", ReadProp: 1.0, Distribution: "zipfian"},
		{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Distribution: "latest"},
		{Name: "E", ScanProp: 0.95, InsertProp: 0.05, Distribution: "uniform"},
		{Name: "F", ReadProp: 0.5, RMWProp: 0.5, Distribution: "zipfian"},
	}
}

// Lookup returns the core workload with the given name.
func Lookup(name string) (Workload, error) {
	for _, w := range CoreWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q (want A-F)", name)
}

// Config sizes a run. The zero value of every field has a default.
type Config struct {
	// Records is the number of keys loaded before the run. Default 10000.
	Records int
	// Ops is the total measured operation count across all clients.
	// Default 10000.
	Ops int
	// WarmupOps are run (and not measured) before measurement starts,
	// warming the bucket pools and the method's caches. Default Ops/10.
	WarmupOps int
	// Clients is the number of concurrent client goroutines. Default 4.
	Clients int
	// ValueSize is the stored value size in bytes. Default 100 (YCSB's
	// 10x100B field convention compressed into one field).
	ValueSize int
	// ScanMaxLen is the maximum range-scan length; each scan draws a
	// uniform length in [1, ScanMaxLen]. Default 100.
	ScanMaxLen int
	// Theta is the zipfian skew constant. Default 0.99 (YCSB's default).
	Theta float64
	// Seed makes runs reproducible. Default 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Records <= 0 {
		c.Records = 10000
	}
	if c.Ops <= 0 {
		c.Ops = 10000
	}
	if c.WarmupOps < 0 {
		c.WarmupOps = 0
	} else if c.WarmupOps == 0 {
		c.WarmupOps = c.Ops / 10
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 100
	}
	if c.ScanMaxLen <= 0 {
		c.ScanMaxLen = 100
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Counts breaks a run's operations down by type.
type Counts struct {
	Reads   int64 `json:"reads"`
	Updates int64 `json:"updates"`
	Inserts int64 `json:"inserts"`
	Scans   int64 `json:"scans"`
	// ScannedEntries is the total number of entries returned by scans.
	ScannedEntries int64 `json:"scanned_entries,omitempty"`
	RMWs           int64 `json:"rmws"`
}

// Result is one workload run's measurement.
type Result struct {
	Workload string
	Clients  int
	Records  int
	Ops      int64
	Elapsed  time.Duration
	Counts   Counts
	// Latency covers every measured operation end to end (a scan or RMW
	// is one sample).
	Latency latency.Summary
}

// OpsPerSecond returns measured operations per wall-clock second.
func (r Result) OpsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Zipfian draws ranks 0..n-1 with P(rank) proportional to 1/(rank+1)^theta,
// using the rejection-free inversion of Gray et al. (SIGMOD 1994), the
// same generator YCSB ships. The stdlib's rand.Zipf cannot express
// theta < 1, which is exactly the regime YCSB's default (0.99) lives in.
// A Zipfian is immutable after construction and safe to share across
// clients, each drawing with its own rand.Rand. It is exported so other
// workload generators (the perfbench page and kv workloads) can reuse the
// tuned-skew machinery.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipfian builds a generator over ranks 0..n-1 with skew theta.
func NewZipfian(n uint64, theta float64) *Zipfian {
	if n < 1 {
		n = 1
	}
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
// O(n) once per run; n in the millions costs milliseconds.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws one rank using r.
func (z *Zipfian) Next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// Scramble spreads zipfian ranks over a key space so the hot keys are
// not clustered at its start (YCSB's ScrambledZipfian), using the
// splitmix64 finalizer as the hash.
func Scramble(rank uint64) uint64 {
	rank ^= rank >> 33
	rank *= 0xff51afd7ed558ccd
	rank ^= rank >> 33
	rank *= 0xc4ceb9fe1a85ec53
	rank ^= rank >> 33
	return rank
}

// chooser picks the key index an operation targets, given the current
// key count (which grows as inserts land).
type chooser func(r *rand.Rand, bound uint64) uint64

func (w Workload) chooser(cfg Config) (chooser, error) {
	switch w.Distribution {
	case "uniform":
		return func(r *rand.Rand, bound uint64) uint64 {
			return uint64(r.Int63n(int64(bound)))
		}, nil
	case "zipfian":
		// The skew is fixed over the initial key space; inserted keys
		// join the tail via the modulo, matching YCSB's expanded-keyspace
		// approximation.
		z := NewZipfian(uint64(cfg.Records), cfg.Theta)
		return func(r *rand.Rand, bound uint64) uint64 {
			return Scramble(z.Next(r)) % bound
		}, nil
	case "latest":
		// Rank 0 is the most recently inserted key.
		z := NewZipfian(uint64(cfg.Records), cfg.Theta)
		return func(r *rand.Rand, bound uint64) uint64 {
			return bound - 1 - z.Next(r)%bound
		}, nil
	default:
		return nil, fmt.Errorf("ycsb: unknown distribution %q", w.Distribution)
	}
}

func (w Workload) validate() error {
	sum := w.ReadProp + w.UpdateProp + w.InsertProp + w.ScanProp + w.RMWProp
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("ycsb: workload %s proportions sum to %g, want 1", w.Name, sum)
	}
	return nil
}

// fillValue writes a deterministic-size pseudo-random value.
func fillValue(r *rand.Rand, buf []byte) {
	for i := range buf {
		buf[i] = byte(r.Int63())
	}
}

// Load bulk-inserts the initial cfg.Records keys (0..Records-1) and
// syncs the store. Call once before Run; the loaded key space is shared
// by every workload phase run against the same store.
func Load(db *kv.DB, cfg Config) error {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	buf := make([]byte, cfg.ValueSize)
	const batchSize = 64
	batch := make([]kv.Entry, 0, batchSize)
	for k := 0; k < cfg.Records; k++ {
		fillValue(r, buf)
		batch = append(batch, kv.Entry{Key: uint64(k), Value: append([]byte(nil), buf...)})
		if len(batch) == batchSize || k == cfg.Records-1 {
			if err := db.PutBatch(batch); err != nil {
				return fmt.Errorf("ycsb: load key %d: %w", k, err)
			}
			batch = batch[:0]
		}
	}
	return db.Sync()
}

// Run drives one workload over a loaded store: every client runs its
// share of the warm-up unrecorded, then its share of cfg.Ops with
// per-operation latency recording. The store must contain keys
// 0..Records-1 (see Load); inserts extend the key space from there,
// including keys added by previously run phases.
func Run(db *kv.DB, w Workload, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := w.validate(); err != nil {
		return Result{}, err
	}
	choose, err := w.chooser(cfg)
	if err != nil {
		return Result{}, err
	}
	// The insert frontier: keys below it exist. Starts at the store's
	// current size so phases compose.
	frontier := atomic.Uint64{}
	if n := db.Len(); n >= cfg.Records {
		frontier.Store(uint64(n))
	} else {
		frontier.Store(uint64(cfg.Records))
	}

	var (
		wg     sync.WaitGroup
		counts Counts
		errs   = make([]error, cfg.Clients)
		recs   = make([]*latency.Recorder, cfg.Clients)
	)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		share := cfg.Ops / cfg.Clients
		if c < cfg.Ops%cfg.Clients {
			share++
		}
		warm := cfg.WarmupOps / cfg.Clients
		if c < cfg.WarmupOps%cfg.Clients {
			warm++
		}
		rec := latency.NewRecorder(share)
		recs[c] = rec
		wg.Add(1)
		go func(c, share, warm int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(c)*0x9E37 + 11))
			val := make([]byte, cfg.ValueSize)
			var getBuf []byte
			for i := 0; i < warm+share; i++ {
				measured := i >= warm
				t0 := time.Now()
				err := runOp(db, w, cfg, choose, &frontier, r, val, &getBuf, measured, &counts)
				if measured {
					rec.Record(time.Since(t0))
				}
				if err != nil {
					errs[c] = fmt.Errorf("ycsb: client %d op %d: %w", c, i, err)
					return
				}
			}
		}(c, share, warm)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	sum := latency.MergeSummarize(recs)
	return Result{
		Workload: w.Name,
		Clients:  cfg.Clients,
		Records:  cfg.Records,
		Ops:      sum.Count,
		Elapsed:  elapsed,
		Counts:   counts,
		Latency:  sum,
	}, nil
}

// runOp executes one operation of the mix. counts fields are updated
// atomically (only when measured), so clients share one Counts.
func runOp(db *kv.DB, w Workload, cfg Config, choose chooser, frontier *atomic.Uint64,
	r *rand.Rand, val []byte, getBuf *[]byte, measured bool, counts *Counts) error {
	bound := frontier.Load()
	p := r.Float64()
	switch {
	case p < w.ReadProp:
		k := choose(r, bound)
		got, err := db.Get(k, *getBuf)
		// A not-found is legitimate when inserts are in flight: the
		// frontier advances before the insert's Put lands, so a reader
		// can target a key a hair before it exists (YCSB tolerates the
		// same race).
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return fmt.Errorf("read %d: %w", k, err)
		}
		if err == nil {
			*getBuf = got[:0]
		}
		if measured {
			atomic.AddInt64(&counts.Reads, 1)
		}
	case p < w.ReadProp+w.UpdateProp:
		k := choose(r, bound)
		fillValue(r, val)
		if err := db.Put(k, val); err != nil {
			return fmt.Errorf("update %d: %w", k, err)
		}
		if measured {
			atomic.AddInt64(&counts.Updates, 1)
		}
	case p < w.ReadProp+w.UpdateProp+w.InsertProp:
		k := frontier.Add(1) - 1
		fillValue(r, val)
		if err := db.Put(k, val); err != nil {
			return fmt.Errorf("insert %d: %w", k, err)
		}
		if measured {
			atomic.AddInt64(&counts.Inserts, 1)
		}
	case p < w.ReadProp+w.UpdateProp+w.InsertProp+w.ScanProp:
		k := choose(r, bound)
		n := 1 + r.Intn(cfg.ScanMaxLen)
		seen := int64(0)
		if err := db.Scan(k, ^uint64(0), n, func(uint64, []byte) bool {
			seen++
			return true
		}); err != nil {
			return fmt.Errorf("scan from %d: %w", k, err)
		}
		if measured {
			atomic.AddInt64(&counts.Scans, 1)
			atomic.AddInt64(&counts.ScannedEntries, seen)
		}
	default:
		k := choose(r, bound)
		got, err := db.Get(k, *getBuf)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return fmt.Errorf("rmw read %d: %w", k, err)
		}
		if err == nil {
			*getBuf = got[:0]
		}
		fillValue(r, val)
		if err := db.Put(k, val); err != nil {
			return fmt.Errorf("rmw write %d: %w", k, err)
		}
		if measured {
			atomic.AddInt64(&counts.RMWs, 1)
		}
	}
	return nil
}
