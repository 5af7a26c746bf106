package nosql

import "math"

// scanSource is one SSTable input of the merged range iterator,
// positioned within its ascending key order. Cursors remember the last
// block they touched so walking consecutive keys in the same block
// charges the fetch once — the sequential-read advantage real scans
// have over point reads.
type scanSource struct {
	keys       []uint64
	pos        int
	t          *ssTable
	block      blockID
	blockValid bool
}

// Scan performs one range scan: it merges the memtable and every
// overlapping SSTable in ascending key order starting at start, skips
// tombstoned and TTL-expired cells, and returns how many live rows it
// found before reaching limit (or exhausting the data).
//
// Cost model: scans get no Bloom-filter help (a filter answers point
// membership only), so every table whose key range overlaps the scan
// pays a cursor-positioning seek, every merged cell pays an iterator
// step, and block fetches stream through the file cache. Many
// overlapping generations — size-tiered compaction under write churn —
// therefore make scans expensive, while leveled compaction's few wide
// runs keep them cheap; the tuner can discover that trade-off rather
// than having it hard-coded.
//
//rafiki:hot
func (e *Engine) Scan(start uint64, limit int) int {
	e.ep.ops++
	e.m.Scans++
	if limit <= 0 {
		if e.ep.ops >= e.epochOps {
			e.closeEpoch()
		}
		return 0
	}
	cpu := e.model.ReadCPUSeconds

	// Position a cursor in every source that may still hold keys >=
	// start: the memtable's is its next held key, the tables' are kept
	// in e.tables' deterministic (append) order.
	memKey, memOK := e.mem.seek(start)
	srcs := e.scanSrcs[:0]
	for _, t := range e.tables.tables {
		keys := t.keys()
		if len(keys) == 0 || t.maxKey < start {
			continue
		}
		p := seekGE(keys, start)
		if p == len(keys) {
			continue
		}
		cpu += e.model.ScanSeekCPUSeconds
		srcs = append(srcs, scanSource{keys: keys, pos: p, t: t})
	}

	rows := 0
	for rows < limit {
		// The next key is the minimum over the live cursors.
		minKey, found := memKey, memOK
		for i := range srcs {
			s := &srcs[i]
			if s.pos >= len(s.keys) {
				continue
			}
			if k := s.keys[s.pos]; !found || k < minKey {
				minKey, found = k, true
			}
		}
		if !found {
			break
		}

		// Merge the cell versions at minKey: the memtable is always
		// newest; otherwise the highest-seq table wins. Every version
		// consulted pays an iterator step, and table cursors charge a
		// block fetch when they cross into a new block.
		var (
			live      bool
			decided   bool
			bestSeq   uint64
			bestTable *ssTable
		)
		if memOK && memKey == minKey {
			cpu += e.model.ScanNextCPUSeconds
			e.m.ScanCells++
			c, _ := e.mem.Cell(minKey)
			live = !c.tomb && !cellExpired(c.expiry, e.clock)
			decided = true
			memKey, memOK = e.mem.seek(minKey + 1)
			memOK = memOK && minKey != math.MaxUint64 // minKey+1 wrapped to 0
		}
		for i := range srcs {
			s := &srcs[i]
			if s.pos >= len(s.keys) || s.keys[s.pos] != minKey {
				continue
			}
			cpu += e.model.ScanNextCPUSeconds
			e.m.ScanCells++
			b := s.t.BlockFor(minKey)
			if !s.blockValid || b != s.block {
				s.blockValid, s.block = true, b
				if e.fileCache.Touch(b) {
					e.m.FileCacheHits++
				} else {
					e.m.DiskBlockReads++
					e.ep.readMissBlocks++
				}
			}
			if bestTable == nil || s.t.seq > bestSeq {
				bestSeq, bestTable = s.t.seq, s.t
			}
			s.pos++
		}
		if !decided && bestTable != nil {
			live = !bestTable.IsTombstone(minKey) && !cellExpired(bestTable.ExpiryOf(minKey), e.clock)
		}
		if live {
			rows++
		}
	}

	// Park the (possibly grown) scratch empty: a cursor left in it would
	// pin its table — run, Bloom bits, bitmap — after compaction drops it.
	clear(srcs)
	e.scanSrcs = srcs[:0]

	e.ep.readCPU += cpu
	e.m.ScanRows += uint64(rows)
	e.o.scanLen.Observe(float64(rows))
	if e.ep.ops >= e.epochOps {
		e.closeEpoch()
	}
	return rows
}

// seekGE returns the index of the first element of the ascending slice
// keys that is >= start (len(keys) if none). It is a plain binary
// search rather than sort.Search so the scan hot path stays
// allocation-free (closures passed to sort.Search escape).
//
//rafiki:hot
func seekGE(keys []uint64, start uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
