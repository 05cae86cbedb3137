// Command pdlbench reproduces the paper's evaluation (Experiments 1-7,
// Figures 12-18) and prints the measured tables, plus a parallel
// scalability experiment beyond the paper.
//
// Usage:
//
//	pdlbench -exp 1                  # Figure 12 at the default geometry
//	pdlbench -exp 2 -blocks 1024     # Figure 13 on a 128-MB chip
//	pdlbench -exp all -gcrounds 10   # everything, paper-grade conditioning
//	pdlbench -exp 3 -csv             # CSV for external plotting
//	pdlbench -exp par -workers 16    # parallel update throughput, PDL vs baselines
//	pdlbench -exp gctail -workers 8  # reflection tail latency, sync vs background GC
//	pdlbench -exp read -assertread   # hot reads: diff cache off vs on vs batched
//	pdlbench -exp 1 -backend file    # same experiment on the persistent backend
//	pdlbench -exp fault -assertfault # seeded fault injection: heal or fail typed,
//	                                 # zero silent corruptions, verify on/off latency
//	pdlbench -exp par -cpuprofile cpu.pprof -memprofile mem.pprof
//
// All reported times of experiments 1-7 are simulated flash I/O times
// derived from the datasheet parameters (Table 1), so those runs are
// deterministic for a seed. The parallel experiment additionally reports
// host wall-clock throughput, which is hardware dependent: PDL runs its
// sharded concurrent write path, while the baselines serialize behind a
// mutex. With more than one worker its simulated columns are
// scheduling-dependent too (goroutine interleaving decides when each
// shard's buffer fills and flushes).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pdl/internal/bench"
	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
	"pdl/internal/kv"
	"pdl/internal/tpcc"
	"pdl/internal/ycsb"
)

// sanitize turns a method label into a file-name-safe fragment.
func sanitize(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, label)
}

// main delegates to realMain so deferred cleanups — CPU/heap profile
// writers, the temp-dir removal of the file backend — run even when an
// experiment fails; os.Exit would skip them and leave truncated profiles.
func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		exp       = flag.String("exp", "1", "experiment to run: 1..7, or 'all'")
		blocks    = flag.Int("blocks", 512, "flash size in 132-KB blocks (512 = 64 MB)")
		dbfrac    = flag.Float64("dbfrac", 0.4, "database size as a fraction of flash capacity")
		gcrounds  = flag.Float64("gcrounds", 3, "steady-state criterion: mean GC rounds per block before measuring (paper: 10)")
		ops       = flag.Int("ops", 20000, "measured operations per data point")
		seed      = flag.Int64("seed", 1, "workload seed")
		csv       = flag.Bool("csv", false, "emit CSV instead of tables")
		pageSize  = flag.Int("pagesize", flash.DefaultDataSize, "logical/physical page size in bytes (Figure 13(b) uses 8192)")
		nupdates  = flag.Int("n", 1, "N_updates_till_write for experiments 3 and 4")
		warehouse = flag.Int("warehouses", 1, "TPC-C warehouses for experiment 7")
		workers   = flag.Int("workers", 4, "max worker goroutines for the parallel experiment (-exp par)")
		channels  = flag.Int("channels", 1, "stripe every run's device over N channels (block-granular, flash.Striped); -exp par and gctail sweep channel counts 1..N in powers of two")
		batchSize = flag.Int("batchsize", 64, "reflections per commit round for the batch experiment (-exp batch), logical reads per ReadBatch for the read experiment (-exp read)")
		assertB   = flag.Bool("assertbatch", false, "with -exp batch: exit nonzero unless batched mode syncs no more (file backend: strictly less, at no lower throughput) than per-page mode")
		readcache = flag.String("readcache", "both", "with -exp read: run the cache-off mode, the cache-on modes, or both")
		assertR   = flag.Bool("assertread", false, "with -exp read: exit nonzero unless the cache cuts device reads per logical read from ~2 to ~1 (needs -readcache both)")
		backend   = flag.String("backend", "emu", "flash backend: emu (in-memory) or file (persistent)")
		path      = flag.String("path", "", "directory for -backend file device files (default: a temp dir)")
		report    = flag.String("report", "", "directory for BENCH_*.json reports (par/gctail/batch/read/ycsb/fault; default: none, except -exp ycsb which defaults to '.')")
		workloads = flag.String("workloads", "A,B,C,D,E,F", "with -exp ycsb: comma-separated core workloads to run")
		records   = flag.Int("records", 100_000, "with -exp ycsb: initial key count")
		clients   = flag.Int("clients", 4, "with -exp ycsb: concurrent client goroutines")
		valueSize = flag.Int("valuesize", 100, "with -exp ycsb: value size in bytes")
		assertY   = flag.Bool("assertycsb", false, "with -exp ycsb: exit nonzero unless PDL beats OPU's simulated I/O time on every write-heavy zipfian workload run (A, F)")
		theta     = flag.Float64("theta", 0.99, "zipfian skew for -exp ycsb request distributions")
		faultRate = flag.Float64("faultrate", 0.02, "with -exp fault: per-program decay probability of the seeded campaign")
		assertF   = flag.Bool("assertfault", false, "with -exp fault: exit nonzero unless the campaign injected faults, every injected fault healed or failed typed, and zero reads returned silently corrupt bytes")
		verifySel = flag.String("verify", "both", "with -exp fault: run the verify-on latency point, the verify-off baseline, or both")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file (profile GC and lock behavior directly)")
		memprof   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdlbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pdlbench: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pdlbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pdlbench: -memprofile: %v\n", err)
			}
		}()
	}

	g := bench.DefaultGeometry()
	g.Params.NumBlocks = *blocks
	if *pageSize != flash.DefaultDataSize {
		g.Params.DataSize = *pageSize
		g.Params.SpareSize = *pageSize / 32
	}
	g.DBFrac = *dbfrac
	g.GCRounds = *gcrounds
	g.ConditionMaxOps = 20_000_000
	g.MeasureOps = *ops
	g.Seed = *seed
	if *channels < 1 {
		*channels = 1
	}
	g.Channels = *channels
	switch *backend {
	case "emu":
		// Default: fresh emulated chips.
	case "file":
		dir := *path
		if dir == "" {
			d, err := os.MkdirTemp("", "pdlbench-*")
			if err != nil {
				fmt.Fprintf(os.Stderr, "pdlbench: %v\n", err)
				return 1
			}
			defer os.RemoveAll(d)
			dir = d
		}
		var runSeq int
		g.NewDevice = func(p flash.Params, label string) (flash.Device, error) {
			runSeq++
			name := fmt.Sprintf("run%03d-%s.flash", runSeq, sanitize(label))
			return filedev.Open(filepath.Join(dir, name), filedev.Options{Params: p, Reset: true})
		}
		fmt.Printf("# backend: file-backed devices under %s\n", dir)
	default:
		fmt.Fprintf(os.Stderr, "pdlbench: unknown backend %q (want emu or file)\n", *backend)
		return 1
	}
	specs := bench.StandardMethods(g.Params)

	run := func(id string) error {
		start := time.Now()
		defer func() {
			fmt.Fprintf(os.Stderr, "# experiment %s finished in %s (wall clock)\n",
				id, time.Since(start).Round(time.Millisecond))
		}()
		switch id {
		case "1":
			fmt.Println("Experiment 1 (Figure 12): time per update operation")
			fmt.Printf("# geometry: %s, DB = %.0f%%, conditioning %.1f GC rounds/block\n",
				g.Params, g.DBFrac*100, g.GCRounds)
			rows, err := bench.Exp1(g, specs)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "x")
			} else {
				bench.WriteExp1Table(os.Stdout, rows)
			}
		case "2":
			fmt.Println("Experiment 2 (Figure 13): overall time per update operation vs N_updates_till_write")
			rows, err := bench.Exp2(g, specs, nil)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "N")
			} else {
				bench.WriteSeriesTable(os.Stdout, rows, "N",
					func(r bench.Row) float64 { return r.Overall })
			}
		case "3":
			fmt.Printf("Experiment 3 (Figure 14): overall time per update operation vs %%ChangedByOneU_Op (N=%d)\n", *nupdates)
			rows, err := bench.Exp3(g, specs, nil, *nupdates)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "pct_changed")
			} else {
				bench.WriteSeriesTable(os.Stdout, rows, "%changed",
					func(r bench.Row) float64 { return r.Overall })
			}
		case "4":
			fmt.Printf("Experiment 4 (Figure 15): overall time per operation vs %%UpdateOps (N=%d)\n", *nupdates)
			rows, err := bench.Exp4(g, specs, nil, *nupdates)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "pct_updates")
			} else {
				bench.WriteSeriesTable(os.Stdout, rows, "%updates",
					func(r bench.Row) float64 { return r.Overall })
			}
		case "5":
			fmt.Println("Experiment 5 (Figure 16): overall time per update operation vs Tread, Twrite")
			points, err := bench.Exp5(g, specs, nil, nil)
			if err != nil {
				return err
			}
			bench.WriteExp5Table(os.Stdout, points)
		case "6":
			fmt.Println("Experiment 6 (Figure 17): erase operations per update operation vs N_updates_till_write")
			rows, err := bench.Exp6(g, specs, nil)
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteCSV(os.Stdout, rows, "N")
			} else {
				bench.WriteSeriesTable(os.Stdout, rows, "N",
					func(r bench.Row) float64 { return r.ErasesPerOp })
			}
		case "7":
			fmt.Println("Experiment 7 (Figure 18): TPC-C I/O time per transaction vs DBMS buffer size")
			cfg := bench.DefaultExp7Config()
			cfg.Scale = tpcc.DefaultScale(*warehouse)
			cfg.Seed = *seed
			points, err := bench.Exp7(g, specs, cfg)
			if err != nil {
				return err
			}
			bench.WriteExp7Table(os.Stdout, points)
		case "par":
			if err := runParallel(g, *workers, *ops, *report, *backend); err != nil {
				return err
			}
		case "gctail":
			if err := runGCTail(g, *workers, *ops, *report, *backend); err != nil {
				return err
			}
		case "batch":
			if err := runBatch(g, *backend, *path, *batchSize, *ops, *assertB, *report); err != nil {
				return err
			}
		case "read":
			if err := runRead(g, *backend, *batchSize, *ops, *readcache, *assertR, *report); err != nil {
				return err
			}
		case "ycsb":
			dir := *report
			if dir == "" {
				dir = "." // serving reports are the experiment's product; always emit
			}
			if err := runYCSB(g, *backend, *workloads, *records, *clients, *valueSize, *ops, *theta, dir, *assertY); err != nil {
				return err
			}
		case "fault":
			if err := runFault(g, *backend, *ops, *faultRate, *verifySel, *assertF, *report); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q (want 1..7, par, gctail, batch, read, ycsb, fault, or all)", id)
		}
		fmt.Println()
		return nil
	}

	// "all" covers the paper's deterministic experiments; the parallel and
	// tail-latency experiments are host-dependent and must be requested
	// explicitly.
	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = []string{"1", "2", "3", "4", "5", "6", "7"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "pdlbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// emitReport writes one BENCH_*.json document when a report directory
// was requested, echoing the path so scripts can collect the files.
func emitReport(dir string, r bench.Report) error {
	if dir == "" {
		return nil
	}
	path, err := bench.WriteReportFile(dir, r)
	if err != nil {
		return err
	}
	fmt.Printf("# report: %s\n", path)
	return nil
}

// geometryParams projects a geometry into the report's parameter block.
func geometryParams(g bench.Geometry) bench.ReportParams {
	nchan := g.Channels
	if nchan < 1 {
		nchan = 1
	}
	return bench.ReportParams{
		NumBlocks:     g.Params.NumBlocks,
		PagesPerBlock: g.Params.PagesPerBlock,
		PageSize:      g.Params.DataSize,
		Channels:      nchan,
		NumPages:      g.NumPages(),
		Seed:          g.Seed,
	}
}

// channelSweep returns the channel counts an experiment sweeps for the
// -channels flag: powers of two up to max, plus max itself.
func channelSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var counts []int
	for c := 1; c < max; c *= 2 {
		counts = append(counts, c)
	}
	return append(counts, max)
}

// runYCSB runs the serving-layer experiment: the kv store under the YCSB
// core workload mixes, PDL versus the baselines, with per-operation
// latency percentiles and one schema-versioned report per point.
func runYCSB(g bench.Geometry, backend, workloadSel string, records, clients, valueSize, ops int,
	theta float64, reportDir string, assert bool) error {
	var wls []ycsb.Workload
	for _, name := range strings.Split(workloadSel, ",") {
		w, err := ycsb.Lookup(strings.TrimSpace(strings.ToUpper(name)))
		if err != nil {
			return err
		}
		wls = append(wls, w)
	}
	cfg := ycsb.Config{
		Records:   records,
		Ops:       ops,
		Clients:   clients,
		ValueSize: valueSize,
		Theta:     theta,
		Seed:      g.Seed,
	}
	// Bucket the key space at twice the client count (nearest power of
	// two) so bucket-lock collisions stay rare, and give each bucket a
	// pool around an eighth of its pages — enough locality to matter,
	// small enough that the methods underneath still see the workload.
	kvOpts := kv.Options{Buckets: 8, Readahead: 8}
	for kvOpts.Buckets < 2*clients && kvOpts.Buckets < 64 {
		kvOpts.Buckets *= 2
	}
	est := int(kv.PagesNeeded(records, valueSize, g.Params.DataSize, kvOpts))
	kvOpts.PoolPages = est / kvOpts.Buckets / 8
	if kvOpts.PoolPages < 64 {
		kvOpts.PoolPages = 64
	}
	specs := []bench.MethodSpec{
		{Kind: bench.KindPDL, Param: g.Params.DataSize / 8, Shards: clients},
		{Kind: bench.KindPDL, Param: g.Params.DataSize, Shards: clients},
		{Kind: bench.KindOPU},
		{Kind: bench.KindIPU},
	}
	names := make([]string, len(wls))
	for i, w := range wls {
		names[i] = w.Name
	}
	fmt.Printf("YCSB serving experiment: workloads %s, %d records, %d clients, %dB values\n",
		strings.Join(names, ","), records, clients, valueSize)
	fmt.Printf("# geometry: %s, kv: %d buckets x %d pool pages, ~%d ops per point, backend %s\n",
		g.Params, kvOpts.Buckets, kvOpts.PoolPages, ops, backend)
	fmt.Printf("# throughput is host wall-clock; fl-* columns are the per-phase device work\n")
	points, err := bench.ExpYCSB(g, specs, wls, cfg, kvOpts)
	if err != nil {
		return err
	}
	bench.WriteYCSBTable(os.Stdout, points)
	for _, pt := range points {
		if err := emitReport(reportDir, bench.YCSBReport(pt, backend, g, cfg, kvOpts)); err != nil {
			return err
		}
	}
	if !assert {
		return nil
	}
	// The serving-layer form of the paper's headline claim: on
	// write-heavy zipfian mixes, page-differential logging must cost
	// less device I/O time than whole-page out-of-place updating.
	type key struct{ workload, method string }
	sim := map[key]int64{}
	for _, pt := range points {
		sim[key{pt.Result.Workload, pt.Method}] = pt.Flash.TimeMicros
	}
	checked := 0
	for _, w := range wls {
		if w.Name != "A" && w.Name != "F" {
			continue
		}
		opu, ok := sim[key{w.Name, "OPU"}]
		if !ok {
			continue
		}
		for _, spec := range specs {
			name := spec.Name(g.Params)
			if spec.Kind != bench.KindPDL {
				continue
			}
			pdl, ok := sim[key{w.Name, name}]
			if !ok {
				continue
			}
			checked++
			if pdl >= opu {
				return fmt.Errorf("workload %s: %s cost %d us of simulated I/O, OPU %d: PDL must beat whole-page OPU on write-heavy zipfian mixes",
					w.Name, name, pdl, opu)
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("-assertycsb needs workload A or F and both PDL and OPU points")
	}
	fmt.Printf("# ycsb check passed: PDL under OPU's simulated I/O time on %d write-heavy points\n", checked)
	return nil
}

// runBatch runs bench.ExpBatch: the same commit-round update workload
// reflected one WritePage at a time versus through WriteBatch. On the
// file backend the devices use SyncAlways — the batch pipeline's reason
// to exist is coalescing that policy's per-program fsyncs — so the syncs
// column is the headline there; on the emulator the comparison is about
// lock acquisitions and shows up in ops/s only.
func runBatch(g bench.Geometry, backend, path string, batchSize, ops int, assert bool, reportDir string) error {
	if backend == "file" {
		dir := path
		if dir == "" {
			d, err := os.MkdirTemp("", "pdlbench-batch-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(d)
			dir = d
		}
		var runSeq int
		g.NewDevice = func(p flash.Params, label string) (flash.Device, error) {
			runSeq++
			name := fmt.Sprintf("batch%03d-%s.flash", runSeq, sanitize(label))
			return filedev.Open(filepath.Join(dir, name), filedev.Options{
				Params: p, Reset: true, Sync: filedev.SyncAlways,
			})
		}
	}
	maxDiff := g.Params.DataSize / 8
	fmt.Printf("Batch experiment: per-page vs batched write-back, %d-page commit rounds, PDL(%dB)\n",
		batchSize, maxDiff)
	fmt.Printf("# geometry: %s, DB = %d pages, ~%d ops per mode, backend %s\n",
		g.Params, g.NumPages(), ops, backend)
	points, err := bench.ExpBatch(g, maxDiff, batchSize, ops)
	if err != nil {
		return err
	}
	bench.WriteBatchTable(os.Stdout, points)
	for _, p := range points {
		fl := p.Flash
		err := emitReport(reportDir, bench.Report{
			Experiment:    "batch-" + p.Mode,
			Method:        fmt.Sprintf("PDL(%dB)", maxDiff),
			Backend:       backend,
			Params:        geometryParams(g),
			Ops:           p.Ops,
			ElapsedMicros: p.Elapsed.Microseconds(),
			OpsPerSec:     p.OpsPerSecond(),
			Flash:         &fl,
			Extra: map[string]float64{
				"batch_size":    float64(p.BatchSize),
				"batch_writes":  float64(p.BatchWrites),
				"batched_pages": float64(p.BatchedPages),
			},
		})
		if err != nil {
			return err
		}
	}
	if !assert {
		return nil
	}
	perPage, batched := points[0], points[1]
	if batched.Flash.Syncs > perPage.Flash.Syncs {
		return fmt.Errorf("batched mode issued %d device syncs, per-page %d: batching must never sync more",
			batched.Flash.Syncs, perPage.Flash.Syncs)
	}
	if backend == "file" {
		if batched.Flash.Syncs >= perPage.Flash.Syncs {
			return fmt.Errorf("batched mode issued %d device syncs, per-page %d: want strictly fewer on a write-through backend",
				batched.Flash.Syncs, perPage.Flash.Syncs)
		}
		if batched.OpsPerSecond() < perPage.OpsPerSecond() {
			return fmt.Errorf("batched mode ran at %.0f ops/s, per-page at %.0f: batching must not cost throughput",
				batched.OpsPerSecond(), perPage.OpsPerSecond())
		}
	}
	fmt.Printf("# batch check passed: syncs %d vs %d, ops/s %.0f vs %.0f\n",
		batched.Flash.Syncs, perPage.Flash.Syncs, batched.OpsPerSecond(), perPage.OpsPerSecond())
	return nil
}

// runRead runs bench.ExpRead: the identical hot random-read workload over
// a database in which every page carries a flushed differential, served
// with the paper's two-read PDL_Reading (cache-off), with the
// differential-page cache (cache-on), and through batched ReadBatch calls
// (batch). The headline column is reads/op: the cache cuts the two serial
// flash reads per hot diff-bearing read to one, which halves the simulated
// I/O time per read — the deterministic form of the >=2x hot-read
// throughput claim that -assertread enforces.
func runRead(g bench.Geometry, backend string, batchSize, ops int, cacheSel string, assert bool, reportDir string) error {
	var modes []string
	switch cacheSel {
	case "both":
	case "on":
		modes = []string{"cache-on", "batch"}
	case "off":
		modes = []string{"cache-off"}
	default:
		return fmt.Errorf("unknown -readcache %q (want on, off, or both)", cacheSel)
	}
	if assert && cacheSel != "both" {
		return fmt.Errorf("-assertread needs -readcache both")
	}
	maxDiff := g.Params.DataSize / 8
	fmt.Printf("Read experiment: hot reads of diff-bearing pages, cache off vs on vs batched, PDL(%dB)\n", maxDiff)
	fmt.Printf("# geometry: %s, DB = %d pages, ~%d reads per mode, backend %s\n",
		g.Params, g.NumPages(), ops, backend)
	points, err := bench.ExpRead(g, maxDiff, ops, batchSize, modes...)
	if err != nil {
		return err
	}
	bench.WriteReadTable(os.Stdout, points)
	for _, p := range points {
		fl := p.Flash
		err := emitReport(reportDir, bench.Report{
			Experiment:    "read-" + p.Mode,
			Method:        fmt.Sprintf("PDL(%dB)", maxDiff),
			Backend:       backend,
			Params:        geometryParams(g),
			Ops:           p.Ops,
			ElapsedMicros: p.Elapsed.Microseconds(),
			Flash:         &fl,
			Extra: map[string]float64{
				"reads_per_op":  p.ReadsPerOp(),
				"p50_us":        float64(p.P50.Nanoseconds()) / 1000,
				"p99_us":        float64(p.P99.Nanoseconds()) / 1000,
				"cache_hits":    float64(p.CacheHits),
				"cache_misses":  float64(p.CacheMisses),
				"batch_reads":   float64(p.BatchReads),
				"batched_reads": float64(p.BatchedReads),
			},
		})
		if err != nil {
			return err
		}
	}
	if !assert {
		return nil
	}
	byMode := map[string]bench.ReadPoint{}
	for _, p := range points {
		byMode[p.Mode] = p
	}
	off, on, batched := byMode["cache-off"], byMode["cache-on"], byMode["batch"]
	if off.ReadsPerOp() < 1.9 {
		return fmt.Errorf("cache-off mode cost %.2f device reads per read, want ~2 (the workload failed to make pages diff-bearing)",
			off.ReadsPerOp())
	}
	if on.ReadsPerOp() > 1.15 {
		return fmt.Errorf("cache-on mode cost %.2f device reads per read, want ~1", on.ReadsPerOp())
	}
	if batched.ReadsPerOp() > 1.15 {
		return fmt.Errorf("batch mode cost %.2f device reads per read, want ~1", batched.ReadsPerOp())
	}
	ratio := off.SimMicrosPerOp() / on.SimMicrosPerOp()
	if ratio < 1.8 {
		return fmt.Errorf("cache sped hot reads up %.2fx in simulated I/O time, want >=1.8x", ratio)
	}
	fmt.Printf("# read check passed: reads/op %.2f -> %.2f (batched %.2f), simulated hot-read speedup %.2fx\n",
		off.ReadsPerOp(), on.ReadsPerOp(), batched.ReadsPerOp(), ratio)
	return nil
}

// runFault runs bench.ExpFault: a seeded fault-injection campaign under a
// mixed workload against a shadow model — every read must return the
// model's bytes or a typed ftl.PageError, never silently wrong content —
// followed by clean-path read-latency points with verification on and off.
// With assert set it exits nonzero unless the campaign injected faults,
// the integrity machinery demonstrably ran, and zero reads were silently
// corrupt (untyped failures abort the experiment outright).
func runFault(g bench.Geometry, backend string, ops int, rate float64, verifySel string, assert bool, reportDir string) error {
	var modes []string
	switch verifySel {
	case "both":
	case "on":
		modes = []string{"campaign", "verify-on"}
	case "off":
		modes = []string{"campaign", "verify-off"}
	default:
		return fmt.Errorf("unknown -verify %q (want on, off, or both)", verifySel)
	}
	maxDiff := g.Params.DataSize / 8
	fmt.Printf("Fault-injection experiment: seeded campaign (rate %.3f) under a mixed workload, PDL(%dB)\n",
		rate, maxDiff)
	fmt.Printf("# geometry: %s, DB = %d pages, ~%d ops per mode, backend %s\n",
		g.Params, g.NumPages(), ops, backend)
	fmt.Printf("# SILENT must be zero: a read that matches neither the model nor a typed error is corruption\n")
	points, err := bench.ExpFault(g, maxDiff, ops, rate, modes...)
	if err != nil {
		return err
	}
	bench.WriteFaultTable(os.Stdout, points)
	byMode := map[string]bench.FaultPoint{}
	for _, p := range points {
		byMode[p.Mode] = p
		fl := p.Flash
		tel := p.Telemetry
		err := emitReport(reportDir, bench.Report{
			Experiment:    "fault-" + p.Mode,
			Method:        fmt.Sprintf("PDL(%dB)", maxDiff),
			Backend:       backend,
			Params:        geometryParams(g),
			Ops:           p.Ops,
			ElapsedMicros: p.Elapsed.Microseconds(),
			OpsPerSec:     p.OpsPerSecond(),
			Flash:         &fl,
			Telemetry:     &tel,
			Extra: map[string]float64{
				"fault_rate":         rate,
				"injected":           float64(p.InjectedTotal()),
				"corrected_bits":     float64(p.CorrectedBits),
				"pages_healed":       float64(p.Healed),
				"unrecoverable":      float64(p.Unrecoverable),
				"typed_read_errors":  float64(p.TypedReadErrors),
				"typed_write_errors": float64(p.TypedWriteErrors),
				"lost_pages":         float64(p.LostPages),
				"silent_corruptions": float64(p.SilentCorruptions),
				"p50_us":             float64(p.P50.Nanoseconds()) / 1000,
				"p99_us":             float64(p.P99.Nanoseconds()) / 1000,
			},
		})
		if err != nil {
			return err
		}
	}
	camp := byMode["campaign"]
	on, hasOn := byMode["verify-on"]
	off, hasOff := byMode["verify-off"]
	if hasOn && hasOff && off.P50 > 0 {
		fmt.Printf("# verification overhead: p50 %.1f -> %.1f us (%.2fx), p99 %.1f -> %.1f us\n",
			float64(off.P50.Nanoseconds())/1000, float64(on.P50.Nanoseconds())/1000,
			float64(on.P50.Nanoseconds())/float64(off.P50.Nanoseconds()),
			float64(off.P99.Nanoseconds())/1000, float64(on.P99.Nanoseconds())/1000)
	}
	if !assert {
		return nil
	}
	if camp.SilentCorruptions > 0 {
		return fmt.Errorf("%d reads returned silently corrupt bytes: the integrity contract is broken", camp.SilentCorruptions)
	}
	if camp.InjectedTotal() == 0 {
		return fmt.Errorf("campaign injected no faults (rate %.3f too low for %d ops)", rate, ops)
	}
	if camp.CorrectedBits+camp.Healed+camp.Unrecoverable+camp.HeaderFailures == 0 {
		return fmt.Errorf("campaign exercised no integrity machinery: %d faults injected but none surfaced on a read", camp.InjectedTotal())
	}
	fmt.Printf("# fault check passed: %d injected, %d bits corrected, %d healed, %d typed, %d lost, 0 silent\n",
		camp.InjectedTotal(), camp.CorrectedBits, camp.Healed,
		camp.TypedReadErrors+camp.TypedWriteErrors, camp.LostPages)
	return nil
}

// runGCTail runs bench.ExpGCTail: the same partitioned update workload
// against PDL with synchronous and with background garbage collection,
// reporting the per-reflection wall-clock latency distribution. The
// headline column is p99: background GC moves victim relocation off the
// write path, so the collection cycles that synchronous mode charges to
// unlucky reflections disappear from the tail.
func runGCTail(g bench.Geometry, workers, ops int, reportDir, backend string) error {
	if workers < 1 {
		workers = 1
	}
	sweep := channelSweep(g.Channels)
	fmt.Printf("GC tail-latency experiment: reflection latency percentiles at %d workers, sync vs background GC, channels %v\n",
		workers, sweep)
	fmt.Printf("# geometry: %s, DB = %d pages, %d ops per mode, conditioning %.1f GC rounds/block\n",
		g.Params, g.NumPages(), ops, g.GCRounds)
	fmt.Printf("# latencies are host wall-clock; compare the rows, not machines\n")
	maxDiff := g.Params.DataSize / 8
	var points []bench.TailPoint
	for _, nchan := range sweep {
		cg := g
		cg.Channels = nchan
		pts, err := bench.ExpGCTail(cg, maxDiff, workers, ops)
		if err != nil {
			return err
		}
		points = append(points, pts...)
	}
	bench.WriteGCTailTable(os.Stdout, points)
	for _, p := range points {
		lat := p.Latency
		cg := g
		cg.Channels = p.Channels
		params := geometryParams(cg)
		params.Workers = p.Workers
		err := emitReport(reportDir, bench.Report{
			Experiment:    fmt.Sprintf("gctail-%s-c%d", p.Mode, p.Channels),
			Method:        fmt.Sprintf("PDL(%dB)", maxDiff),
			Backend:       backend,
			Params:        params,
			Ops:           p.Ops,
			ElapsedMicros: p.Elapsed.Microseconds(),
			Latency:       &lat,
			ChannelGC:     p.ChannelGC,
			Extra: map[string]float64{
				"gc_runs":   float64(p.GCRuns),
				"bg_runs":   float64(p.BackgroundRuns),
				"fallbacks": float64(p.Fallbacks),
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runParallel runs bench.ExpParallel — the sharded PDL store against the
// serialized baselines as worker goroutines grow — and prints the table.
// Host throughput (ops/s) depends on the machine; with several workers
// the simulated columns are scheduling-dependent too.
func runParallel(g bench.Geometry, maxWorkers, ops int, reportDir, backend string) error {
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	sweep := channelSweep(g.Channels)
	fmt.Printf("Parallel experiment: update throughput at 1..%d workers, channels %v (PDL sharded vs serialized baselines)\n",
		maxWorkers, sweep)
	if g.NumPages() < maxWorkers {
		return fmt.Errorf("database of %d pages too small for %d workers", g.NumPages(), maxWorkers)
	}
	var workerCounts []int
	for w := 1; w < maxWorkers; w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	workerCounts = append(workerCounts, maxWorkers)

	specs := []bench.MethodSpec{
		{Kind: bench.KindPDL, Param: g.Params.DataSize, Shards: maxWorkers},
		{Kind: bench.KindPDL, Param: g.Params.DataSize / 8, Shards: maxWorkers},
		{Kind: bench.KindOPU},
		{Kind: bench.KindIPU},
		{Kind: bench.KindIPL, Param: 9 * g.Params.PagesPerBlock / 64},
	}
	fmt.Printf("# geometry: %s, DB = %d pages, %d ops per point, conditioning %.1f GC rounds/block\n",
		g.Params, g.NumPages(), ops, g.GCRounds)
	var points []bench.ParallelPoint
	for _, nchan := range sweep {
		cg := g
		cg.Channels = nchan
		pts, err := bench.ExpParallel(cg, specs, workerCounts, ops)
		if err != nil {
			return err
		}
		points = append(points, pts...)
	}
	fmt.Printf("%-12s %8s %6s %12s %12s %14s %12s %s\n",
		"method", "workers", "chans", "wall-ms", "ops/s", "sim-us/op", "sim-ops/s", "mode")
	for _, p := range points {
		mode := "parallel"
		if p.Result.Serialized {
			mode = "serialized"
		}
		fmt.Printf("%-12s %8d %6d %12.1f %12.0f %14.1f %12.0f %s\n",
			p.Method, p.Workers, p.Channels,
			float64(p.Result.Elapsed.Microseconds())/1000,
			p.Result.OpsPerSecond(),
			float64(p.Result.Flash.TimeMicros)/float64(p.Result.Ops),
			p.SimOpsPerSecond(),
			mode)
	}
	for _, p := range points {
		fl := p.Result.Flash
		cg := g
		cg.Channels = p.Channels
		params := geometryParams(cg)
		params.Workers = p.Workers
		serialized := 0.0
		if p.Result.Serialized {
			serialized = 1
		}
		err := emitReport(reportDir, bench.Report{
			Experiment:    fmt.Sprintf("par-%dw-c%d", p.Workers, p.Channels),
			Method:        p.Method,
			Backend:       backend,
			Params:        params,
			Ops:           p.Result.Ops,
			ElapsedMicros: p.Result.Elapsed.Microseconds(),
			OpsPerSec:     p.Result.OpsPerSecond(),
			Flash:         &fl,
			ChannelGC:     p.ChannelGC,
			Extra: map[string]float64{
				"serialized":     serialized,
				"sim_elapsed_us": float64(p.SimElapsedMicros),
				"sim_ops_per_s":  p.SimOpsPerSecond(),
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}
