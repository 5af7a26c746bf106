// Package workload characterizes and generates database workloads the
// way Rafiki's first stage does (Section 3.3): a workload is a Read
// Ratio (RR) plus a Key Reuse Distance (KRD) distribution. The package
// provides a YCSB-like driver that applies a parameterized synthetic
// workload to a store and measures average throughput, an MG-RAST-like
// regime-switching trace synthesizer, and the trace-analysis helpers
// that recover RR windows and fit the KRD exponential from raw query
// streams.
package workload

import (
	"fmt"
	"math/rand"
)

// Store is the minimal surface the driver needs from a datastore: the
// single-node engine and the multi-node cluster both satisfy it.
type Store interface {
	// Read applies one read operation for key.
	Read(key uint64)
	// Write applies one write (or update) operation for key.
	Write(key uint64)
	// FinishEpoch closes any partially-accounted work.
	FinishEpoch()
	// Clock returns elapsed virtual seconds.
	Clock() float64
	// KeySpace returns the number of distinct keys stored.
	KeySpace() int
}

// Spec is the parametrization of a synthetic workload.
type Spec struct {
	// ReadRatio is the fraction of operations that are reads (the
	// paper's RR; the rest are updates). Ignored when Mix is set.
	ReadRatio float64
	// Mix, when non-zero, selects a full YCSB-style op mix — reads,
	// updates, inserts, deletes, and range scans — replacing the
	// ReadRatio split. Stores that don't support deletes or scans
	// receive them as writes and reads.
	Mix Mix
	// Distribution selects the key popularity model (DistKRD or
	// DistZipfian). Empty means DistKRD, the paper's characterization.
	Distribution string
	// ZipfS is the Zipf exponent for DistZipfian (must exceed 1;
	// defaults to 1.4 when unset).
	ZipfS float64
	// ScanLen is the row limit of each range scan (default 64).
	ScanLen int
	// TTLFraction is the fraction of writes carrying a time-to-live of
	// TTLSeconds virtual seconds; stores without TTL support receive
	// them as plain writes.
	TTLFraction float64
	TTLSeconds  float64
	// KRDMean is the mean key-reuse distance in operations. Zero means
	// uniform random access (effectively infinite KRD).
	KRDMean float64
	// Ops is the number of operations to issue.
	Ops int
	// Seed drives the op stream.
	Seed int64
}

// Validate reports spec errors.
func (s Spec) Validate() error {
	if s.ReadRatio < 0 || s.ReadRatio > 1 {
		return fmt.Errorf("workload: read ratio %v out of [0,1]", s.ReadRatio)
	}
	if s.Ops <= 0 {
		return fmt.Errorf("workload: ops must be positive, got %d", s.Ops)
	}
	if s.KRDMean < 0 {
		return fmt.Errorf("workload: negative KRD mean %v", s.KRDMean)
	}
	if !s.Mix.IsZero() {
		if err := s.Mix.Validate(); err != nil {
			return err
		}
	}
	switch s.Distribution {
	case "", DistKRD, DistZipfian:
	default:
		return fmt.Errorf("workload: unknown distribution %q", s.Distribution)
	}
	if s.TTLFraction < 0 || s.TTLFraction > 1 {
		return fmt.Errorf("workload: TTL fraction %v out of [0,1]", s.TTLFraction)
	}
	if s.TTLFraction > 0 && s.TTLSeconds <= 0 {
		return fmt.Errorf("workload: TTL fraction set but TTL seconds is %v", s.TTLSeconds)
	}
	if s.ScanLen < 0 {
		return fmt.Errorf("workload: negative scan length %d", s.ScanLen)
	}
	return nil
}

// Deleter is optionally implemented by stores that support tombstone
// deletes (the single-node engine and the cluster both do).
type Deleter interface {
	Delete(key uint64)
}

// KeyGenerator produces a key stream whose reuse distances follow an
// (approximately) exponential distribution with the given mean, using
// an LRU-stack model: each access draws a stack distance d ~ Exp(mean)
// and touches the d-th most-recently-used key, falling back to a
// uniform draw over the key space when d exceeds the retained history.
type KeyGenerator struct {
	rng      *rand.Rand
	keySpace uint64
	mean     float64
	// history is a ring of the last window keys, addressed by access
	// index modulo window. It grows with the stream until it holds
	// window entries, so a run much shorter than the window (a 60 000-op
	// sample at a KRD of twice the key space) pays for what it touches,
	// not for 4 x KRD zeroed words up front.
	history []uint64
	window  uint64
	// lastIndex holds, per key (every key is < keySpace), the global
	// index of its most recent access, so that reuse draws target a
	// key's latest occurrence and the measured reuse distance matches
	// the drawn one.
	lastIndex []uint64
	index     uint64
}

// NewKeyGenerator builds a generator over keySpace distinct keys with
// mean reuse distance meanKRD (0 = uniform).
func NewKeyGenerator(keySpace int, meanKRD float64, seed int64) (*KeyGenerator, error) {
	if keySpace <= 0 {
		return nil, fmt.Errorf("workload: key space must be positive, got %d", keySpace)
	}
	if meanKRD < 0 {
		return nil, fmt.Errorf("workload: negative KRD mean %v", meanKRD)
	}
	window := int(4 * meanKRD)
	const maxHistory = 1 << 20
	if window > maxHistory {
		window = maxHistory
	}
	if window < 1 {
		window = 1
	}
	return &KeyGenerator{
		rng:       rand.New(rand.NewSource(seed)),
		keySpace:  uint64(keySpace),
		mean:      meanKRD,
		window:    uint64(window),
		lastIndex: make([]uint64, keySpace),
	}, nil
}

// Next returns the next key.
func (g *KeyGenerator) Next() uint64 {
	var key uint64
	reused := false
	if g.mean > 0 {
		// A few attempts to land on a key's most recent occurrence; a
		// position that has since been re-accessed would shorten the
		// realized reuse distance and bias the stream hot.
		for try := 0; try < 4 && !reused; try++ {
			d := uint64(g.rng.ExpFloat64()*g.mean) + 1
			if d > g.index || d > g.window {
				continue
			}
			pos := g.index - d
			candidate := g.history[pos%g.window]
			if g.lastIndex[candidate] == pos {
				key = candidate
				reused = true
			}
		}
	}
	if !reused {
		key = uint64(g.rng.Int63n(int64(g.keySpace)))
	}
	if g.index < g.window {
		if len(g.history) == cap(g.history) {
			// Double (append's own policy for a slice this size is
			// 1.25x, which copies the ring five times over).
			grown := make([]uint64, len(g.history), min(max(2*cap(g.history), 1024), int(g.window)))
			copy(grown, g.history)
			g.history = grown
		}
		g.history = append(g.history, key)
	} else {
		g.history[g.index%g.window] = key
	}
	g.lastIndex[key] = g.index
	g.index++
	return key
}

// Result summarizes one benchmark run.
type Result struct {
	// Spec echoes the workload that produced this result.
	Spec Spec
	// Throughput is operations per virtual second — the paper's AOPS.
	Throughput float64
	// Seconds is the virtual duration of the run.
	Seconds float64
	// Reads and Writes count the issued operations; Writes includes
	// every mutation (updates, inserts, and deletes).
	Reads, Writes int
	// Updates, Inserts, Deletes, and Scans break the run down by op
	// type; ScanRows is the total live rows the scans returned.
	Updates, Inserts, Deletes, Scans int
	ScanRows                         int
}

// Run applies spec to store and returns the measured result: reads,
// in-place updates, frontier inserts, deletes, and range scans, with
// optional TTL'd writes. One seeded RNG stream picks op types and
// parameters; the key generator owns its own stream, so the op
// schedule is deterministic for a given spec. The store keeps its state
// (dataset, caches, compaction debt) across runs, so callers that need
// a cold store must construct a fresh one — exactly the paper's "server
// is reset between data collection events".
func Run(store Store, spec Spec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	gen, err := newKeySource(spec, store.KeySpace())
	if err != nil {
		return Result{}, err
	}
	cumRead, cumUpdate, cumInsert, cumDelete := spec.EffectiveMix().thresholds()
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	deleter, canDelete := store.(Deleter)
	scanner, canScan := store.(Scanner)
	ttlWriter, canTTL := store.(TTLWriter)
	scanLen := spec.ScanLen
	if scanLen == 0 {
		scanLen = 64
	}
	// Inserts allocate fresh keys past the preloaded key space.
	frontier := uint64(store.KeySpace())

	// The capability check is loop-invariant; folding it into a boolean
	// keeps the per-write path to the RNG draws the spec actually
	// requires (the TTL draw happens iff ttlOn).
	ttlOn := spec.TTLFraction > 0 && canTTL
	writeKey := func(key uint64) {
		if ttlOn && rng.Float64() < spec.TTLFraction {
			ttlWriter.WriteTTL(key, spec.TTLSeconds)
			return
		}
		store.Write(key)
	}

	start := store.Clock()
	var res Result
	for i := 0; i < spec.Ops; i++ {
		u := rng.Float64()
		switch {
		case u < cumRead:
			store.Read(gen.Next())
			res.Reads++
		case u < cumUpdate:
			writeKey(gen.Next())
			res.Updates++
			res.Writes++
		case u < cumInsert:
			writeKey(frontier)
			frontier++
			res.Inserts++
			res.Writes++
		case u < cumDelete:
			key := gen.Next()
			if canDelete {
				deleter.Delete(key)
			} else {
				store.Write(key)
			}
			res.Deletes++
			res.Writes++
		default:
			key := gen.Next()
			if canScan {
				res.ScanRows += scanner.Scan(key, scanLen)
			} else {
				store.Read(key)
			}
			res.Scans++
		}
	}
	store.FinishEpoch()
	seconds := store.Clock() - start
	if seconds <= 0 {
		return Result{}, fmt.Errorf("workload: run consumed no virtual time")
	}
	res.Spec = spec
	res.Throughput = float64(spec.Ops) / seconds
	res.Seconds = seconds
	return res, nil
}

// ZipfKeyGenerator produces keys with a Zipfian popularity distribution
// — YCSB's default skew model, provided alongside the KRD generator so
// workloads beyond MG-RAST's can be expressed (archetypal web workloads
// are exactly what the paper contrasts MG-RAST against).
type ZipfKeyGenerator struct {
	zipf     *rand.Zipf
	keySpace uint64
}

// NewZipfKeyGenerator builds a generator over keySpace keys with
// exponent s > 1; larger s concentrates more traffic on hot keys. Key
// popularity ranks are scattered over the key space so that hot keys do
// not cluster into adjacent SSTable blocks.
func NewZipfKeyGenerator(keySpace int, s float64, seed int64) (*ZipfKeyGenerator, error) {
	if keySpace <= 0 {
		return nil, fmt.Errorf("workload: key space must be positive, got %d", keySpace)
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf exponent must exceed 1, got %v", s)
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(keySpace-1))
	if z == nil {
		return nil, fmt.Errorf("workload: invalid zipf parameters")
	}
	return &ZipfKeyGenerator{zipf: z, keySpace: uint64(keySpace)}, nil
}

// Next returns the next key. Popularity rank r maps to key
// (r * odd-constant) mod keySpace — a bijective-ish scatter so hot keys
// do not cluster into adjacent SSTable blocks.
func (g *ZipfKeyGenerator) Next() uint64 {
	rank := g.zipf.Uint64()
	return (rank * 2654435761) % g.keySpace
}
