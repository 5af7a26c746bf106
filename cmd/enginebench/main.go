// Command enginebench measures the storage-engine simulator's raw
// serving speed — wall-clock operations per second and heap allocations
// per operation — separately for each op type (read, update, insert,
// delete, scan, and scan_mixed: a scan that follows a write, so each of
// its ops is one write of a random key plus one scan). The scan row
// scans a quiescent engine; scan_mixed is the interleaving a CRUD mix
// produces, under which the memtable's key order is stale before every
// scan. The result is written as JSON; the committed
// BENCH_engine.json is the tracked trajectory of those numbers across
// PRs, so hot-path regressions show up in review rather than in a
// slower collect stage three PRs later.
//
// Each op type runs against its own freshly preloaded engine that is
// first warmed with a mixed workload, so the measured loop sees the
// steady state (warm block cache, digested first flushes) rather than
// cold-start allocation.
//
// Usage:
//
//	enginebench [-out BENCH_engine.json] [-ops N] [-seed N]
//	            [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rafiki/internal/config"
	"rafiki/internal/nosql"
)

// opResult is one op type's measurement.
type opResult struct {
	Op          string  `json:"op"`
	Ops         int     `json:"ops"`
	WallSeconds float64 `json:"wall_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Allocs      uint64  `json:"allocs"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// report is the file this command writes.
type report struct {
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	OpsPerType int        `json:"ops_per_type"`
	WarmupOps  int        `json:"warmup_ops"`
	Seed       int64      `json:"seed"`
	Ops        []opResult `json:"ops"`
	// TotalOpsPerSec is the harmonic-mean-free summary: total measured
	// ops over total measured wall time across all op types.
	TotalOpsPerSec float64 `json:"total_ops_per_sec"`
	// TotalAllocsPerOp is total allocations over total ops — the number
	// the collect stage's cost scales with.
	TotalAllocsPerOp float64 `json:"total_allocs_per_op"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("enginebench: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// newWarmEngine builds a preloaded engine and drives a mixed warmup
// through it so the measured loop starts from the serving steady state.
func newWarmEngine(seed int64, warmupOps int) (*nosql.Engine, error) {
	e, err := nosql.New(nosql.Options{Space: config.Cassandra(), Seed: seed})
	if err != nil {
		return nil, err
	}
	e.Preload(3)
	rng := rand.New(rand.NewSource(seed + 1))
	n := int64(e.KeySpace())
	for i := 0; i < warmupOps; i++ {
		k := uint64(rng.Int63n(n))
		switch i % 4 {
		case 0, 1:
			e.Read(k)
		case 2:
			e.Write(k)
		case 3:
			e.Delete(k)
		}
	}
	e.FinishEpoch()
	return e, nil
}

// measureOp times n repetitions of op (plus the closing FinishEpoch)
// and reports wall seconds and the heap allocation count
// (runtime.MemStats.Mallocs delta after a fresh GC).
func measureOp(e *nosql.Engine, n int, op func(i int)) (float64, uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	e.FinishEpoch()
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	return secs, m1.Mallocs - m0.Mallocs
}

// writeAllocProfile dumps the post-GC allocation profile to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func run(args []string) error {
	fs := flag.NewFlagSet("enginebench", flag.ContinueOnError)
	var (
		out        = fs.String("out", "BENCH_engine.json", "output path for the JSON report")
		ops        = fs.Int("ops", 200_000, "measured operations per op type")
		seed       = fs.Int64("seed", 1, "base seed")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			if cerr := f.Close(); cerr != nil {
				log.Printf("cpuprofile: %v", cerr)
			}
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				log.Printf("cpuprofile: %v", cerr)
			}
		}()
	}

	warmup := *ops / 4
	rep := report{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OpsPerType: *ops,
		WarmupOps:  warmup,
		Seed:       *seed,
	}

	var totalOps int
	var totalSecs float64
	var totalAllocs uint64
	for _, bench := range []struct {
		name string
		op   func(e *nosql.Engine, rng *rand.Rand, frontier *uint64) func(i int)
	}{
		{"read", func(e *nosql.Engine, rng *rand.Rand, _ *uint64) func(i int) {
			n := int64(e.KeySpace())
			return func(int) { e.Read(uint64(rng.Int63n(n))) }
		}},
		{"update", func(e *nosql.Engine, rng *rand.Rand, _ *uint64) func(i int) {
			n := int64(e.KeySpace())
			return func(int) { e.Write(uint64(rng.Int63n(n))) }
		}},
		{"insert", func(e *nosql.Engine, _ *rand.Rand, frontier *uint64) func(i int) {
			return func(int) { e.Write(*frontier); *frontier++ }
		}},
		{"delete", func(e *nosql.Engine, rng *rand.Rand, _ *uint64) func(i int) {
			n := int64(e.KeySpace())
			return func(int) { e.Delete(uint64(rng.Int63n(n))) }
		}},
		{"scan", func(e *nosql.Engine, rng *rand.Rand, _ *uint64) func(i int) {
			n := int64(e.KeySpace())
			return func(int) { e.Scan(uint64(rng.Int63n(n)), 64) }
		}},
		{"scan_mixed", func(e *nosql.Engine, rng *rand.Rand, _ *uint64) func(i int) {
			n := int64(e.KeySpace())
			return func(int) {
				e.Write(uint64(rng.Int63n(n)))
				e.Scan(uint64(rng.Int63n(n)), 64)
			}
		}},
	} {
		e, err := newWarmEngine(*seed, warmup)
		if err != nil {
			return fmt.Errorf("%s: %w", bench.name, err)
		}
		rng := rand.New(rand.NewSource(*seed + 2))
		frontier := uint64(e.KeySpace())
		secs, allocs := measureOp(e, *ops, bench.op(e, rng, &frontier))
		rep.Ops = append(rep.Ops, opResult{
			Op:          bench.name,
			Ops:         *ops,
			WallSeconds: secs,
			OpsPerSec:   float64(*ops) / secs,
			Allocs:      allocs,
			AllocsPerOp: float64(allocs) / float64(*ops),
		})
		totalOps += *ops
		totalSecs += secs
		totalAllocs += allocs
	}
	rep.TotalOpsPerSec = float64(totalOps) / totalSecs
	rep.TotalAllocsPerOp = float64(totalAllocs) / float64(totalOps)

	if *memprofile != "" {
		if err := writeAllocProfile(*memprofile); err != nil {
			return err
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%.0f ops/s overall, %.3f allocs/op)", *out, rep.TotalOpsPerSec, rep.TotalAllocsPerOp)
	return nil
}
