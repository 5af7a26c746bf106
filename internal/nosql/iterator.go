package nosql

import (
	"math"
	"math/bits"
)

// scanWindow is how many consecutive key ids one step of Scan's merge
// covers: two words of offsets, and one mask word per 64 sources at each.
const scanWindow = 128

// scanSource is one SSTable input of the merged range iterator,
// positioned within its ascending key order. Cursors remember the last
// block they touched so walking consecutive keys in the same block
// charges the fetch once — the sequential-read advantage real scans
// have over point reads.
type scanSource struct {
	keys       []uint64
	pos        int
	t          *ssTable
	span, seq  uint64 // t's blockSpan and seq, read once per scan
	block      blockID
	blockStart uint64 // the first key id of block's span
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
		srcs = append(srcs, scanSource{keys: keys, pos: p, t: t, span: t.blockSpan, seq: t.seq})
	}

	// The merge runs one key window at a time. From the smallest next
	// key lo over every cursor, each source sets its bit at every offset
	// of [lo, lo+scanWindow) where it holds a key — bit i%64 of word i/64
	// of row o of masks for source i — and occ marks the offsets anyone
	// holds. Walking occ in offset order and, at each offset, the
	// memtable and then the tables by ascending index visits the cells in
	// exactly the order a minimum per key would: the same charges (the
	// CPU sum adds the same terms in the same order), block fetches and
	// seq tie-break, and the same stop.
	words := (len(srcs) + 63) / 64
	if need := scanWindow * words; len(e.scanBits) < need {
		e.scanBits = make([]uint64, need)
	}
	masks := e.scanBits
	next, now := e.model.ScanNextCPUSeconds, e.clock
	rows := 0
merge:
	for {
		lo, found := memKey, memOK
		for i := range srcs {
			s := &srcs[i]
			if s.pos < len(s.keys) && (!found || s.keys[s.pos] < lo) {
				lo, found = s.keys[s.pos], true
			}
		}
		if !found {
			break
		}

		// A window is gathered and walked in up to two segments, [0, b)
		// and [b, scanWindow): a scan needs at least one offset per row
		// it still wants, so b a little past that spares the cursors most
		// of the keys a 64-row scan would otherwise gather and never walk.
		want := min(uint64(limit-rows), scanWindow)
		for a, b := uint64(0), min(want*9/8+8, scanWindow); a < scanWindow; a, b = b, scanWindow {
			// Gather. Offsets are key-lo, not key against lo+scanWindow, so
			// the top window, where lo+scanWindow would wrap, still merges.
			var mem [scanWindow / 64]uint64
			for memOK && memKey-lo < b {
				o := memKey - lo
				mem[o/64] |= 1 << (o % 64)
				if memKey == math.MaxUint64 { // memKey+1 would wrap to 0
					memOK = false
					break
				}
				memKey, memOK = e.mem.seek(memKey + 1)
			}
			occ := mem
			for i := range srcs {
				s := &srcs[i]
				keys, p := s.keys, s.pos
				w, bit := i/64, uint64(1)<<(i%64)
				for ; p < len(keys); p++ {
					o := keys[p] - lo
					if o >= b {
						break
					}
					masks[int(o)*words+w] |= bit
					occ[o/64] |= 1 << (o % 64)
				}
				s.pos = p
			}

			// Walk the occupied offsets, clearing each one's masks as it
			// goes. At each key the memtable is newest; otherwise the
			// highest-seq table wins. Every version consulted pays an
			// iterator step, and a cursor crossing into a new block
			// charges its fetch.
			for h, oh := range occ {
				for ; oh != 0; oh &= oh - 1 {
					o := h*64 + bits.TrailingZeros64(oh)
					key := lo + uint64(o)
					var (
						live      bool
						decided   bool
						bestSeq   uint64
						bestTable *ssTable
					)
					if mem[h]&(oh&-oh) != 0 {
						cpu += next
						e.m.ScanCells++
						c, _ := e.mem.Cell(key)
						live = !c.tomb && !cellExpired(c.expiry, now)
						decided = true
					}
					row := masks[o*words : o*words+words]
					for w, m := range row {
						row[w] = 0
						for ; m != 0; m &= m - 1 {
							s := &srcs[w*64+bits.TrailingZeros64(m)]
							cpu += next
							e.m.ScanCells++
							// A key inside the cursor's current block needs
							// no BlockFor division: its block is unchanged.
							if !s.blockValid || key-s.blockStart >= s.span {
								q := key / s.span
								s.blockStart = q * s.span
								if b := (blockID{table: s.t.id, block: uint32(q)}); !s.blockValid || b != s.block {
									s.blockValid, s.block = true, b
									if e.fileCache.Touch(b) {
										e.m.FileCacheHits++
									} else {
										e.m.DiskBlockReads++
										e.ep.readMissBlocks++
									}
								}
							}
							if bestTable == nil || s.seq > bestSeq {
								bestSeq, bestTable = s.seq, s.t
							}
						}
					}
					if !decided && bestTable != nil {
						live = !bestTable.IsTombstone(key) && !cellExpired(bestTable.ExpiryOf(key), now)
					}
					if live {
						if rows++; rows == limit {
							// Clear the masks of the segment left unwalked.
							clear(masks[(o+1)*words : int(b)*words])
							break merge
						}
					}
				}
			}
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
