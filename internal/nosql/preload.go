package nosql

import (
	"sync"
	"weak"
)

// preloadKey names one table of the preload image: the keys first,
// first+stride, ... below keySpace, indexed at keysPerBlock. A table's
// run, filter and bitmap are a pure function of these four numbers.
type preloadKey struct {
	keySpace, keysPerBlock int
	first, stride          uint64
}

// preloaded is the process-wide preload image. Every engine preloaded
// over the same key space — a cluster's nodes, a rate ladder's clusters,
// each of the collector's samples — shares one copy of each table's
// run; the tables hold the only strong pointers, so a run is freed with
// the last table over it, whether that engine was dropped or compacted
// the table away.
var preloaded = struct {
	sync.Mutex
	runs map[preloadKey]weak.Pointer[tableRun]
}{runs: make(map[preloadKey]weak.Pointer[tableRun])}

// preloadRun returns the shared run for key, building it when no live
// table holds one. The lock is held across a build, so engines racing
// for the same table wait for one build instead of each doing their own.
func preloadRun(key preloadKey) *tableRun {
	preloaded.Lock()
	defer preloaded.Unlock()
	if run := preloaded.runs[key].Value(); run != nil {
		return run
	}
	for k, w := range preloaded.runs {
		if w.Value() == nil {
			delete(preloaded.runs, k)
		}
	}
	n := uint64(key.keySpace)
	run := &tableRun{sorted: make([]uint64, 0, (n-key.first+key.stride-1)/key.stride)}
	for k := key.first; k < n; k += key.stride {
		run.sorted = append(run.sorted, k)
	}
	run.index(key.keysPerBlock, key.keySpace)
	preloaded.runs[key] = weak.Make(run)
	return run
}
