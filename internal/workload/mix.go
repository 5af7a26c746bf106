package workload

import (
	"fmt"
	"math"
)

// Mix is a YCSB-style op-type percentage mix (the c/r/u/d/q fractions
// of the YCSB lineage): reads, in-place updates, inserts of new keys,
// deletes, and range scans. Fractions must sum to 1. The zero Mix
// leaves the split to Spec.ReadRatio: reads against updates.
type Mix struct {
	Read   float64
	Update float64
	Insert float64
	Delete float64
	Scan   float64
}

// IsZero reports whether the mix is unset.
func (m Mix) IsZero() bool { return m == Mix{} }

// Validate reports mix errors.
func (m Mix) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"read", m.Read}, {"update", m.Update}, {"insert", m.Insert},
		{"delete", m.Delete}, {"scan", m.Scan},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("workload: mix %s fraction %v out of [0,1]", f.name, f.v)
		}
	}
	if sum := m.Read + m.Update + m.Insert + m.Delete + m.Scan; math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("workload: mix fractions sum to %v, want 1", sum)
	}
	return nil
}

// Key-distribution names for Spec.Distribution.
const (
	// DistKRD is the paper's key-reuse-distance model (the default).
	DistKRD = "krd"
	// DistZipfian draws Zipf-skewed keys (YCSB's web model).
	DistZipfian = "zipfian"
)

// Scanner is optionally implemented by stores that support range scans
// (the single-node engine and the cluster both do). Scan walks keys in
// ascending order from start and returns the live rows found before
// reaching limit.
type Scanner interface {
	Scan(start uint64, limit int) int
}

// TTLWriter is optionally implemented by stores whose writes can carry
// a time-to-live in virtual seconds.
type TTLWriter interface {
	WriteTTL(key uint64, ttlSeconds float64)
}

// keySource is the generator surface the driver consumes.
type keySource interface {
	Next() uint64
}

// newKeySource builds the generator spec.Distribution selects.
func newKeySource(spec Spec, keySpace int) (keySource, error) {
	switch spec.Distribution {
	case "", DistKRD:
		return NewKeyGenerator(keySpace, spec.KRDMean, spec.Seed)
	case DistZipfian:
		s := spec.ZipfS
		if s <= 1 {
			s = 1.4
		}
		return NewZipfKeyGenerator(keySpace, s, spec.Seed)
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q", spec.Distribution)
	}
}

// EffectiveMix returns the op mix the driver will run: the explicit Mix
// when set, otherwise ReadRatio reads against updates.
func (s Spec) EffectiveMix() Mix {
	if !s.Mix.IsZero() {
		return s.Mix
	}
	return Mix{Read: s.ReadRatio, Update: 1 - s.ReadRatio}
}

// thresholds returns the cumulative op-type boundaries the driver
// compares a uniform draw in [0,1) against, in the order [read | update
// | insert | delete | scan]. The last non-zero class is the catch-all —
// its boundary and every later one is 1 — so fractions whose sum rounds
// to just under 1 can never leak a draw into a class the mix excludes.
func (m Mix) thresholds() (read, update, insert, del float64) {
	cum := [...]float64{m.Read, m.Update, m.Insert, m.Delete, m.Scan}
	last := 0
	for i := 1; i < len(cum); i++ {
		if cum[i] > 0 {
			last = i
		}
		cum[i] += cum[i-1]
	}
	for i := last; i < len(cum); i++ {
		cum[i] = 1
	}
	return cum[0], cum[1], cum[2], cum[3]
}

// MixForShape builds the op mix realizing a characterization shape:
// scanRatio of all operations are range scans; the remaining point
// operations split readRatio reads versus mutations, and
// deleteFraction of the mutations are deletes. Inserts stay at zero so
// the key space is identical across collection samples.
func MixForShape(readRatio, scanRatio, deleteFraction float64) Mix {
	point := 1 - scanRatio
	mutate := point * (1 - readRatio)
	return Mix{
		Read:   point * readRatio,
		Update: mutate * (1 - deleteFraction),
		Delete: mutate * deleteFraction,
		Scan:   scanRatio,
	}
}
