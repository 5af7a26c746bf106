package workload

import (
	"math"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    Spec
		wantErr bool
	}{
		{name: "valid", give: Spec{ReadRatio: 0.5, Ops: 100}},
		{name: "rr too high", give: Spec{ReadRatio: 1.5, Ops: 100}, wantErr: true},
		{name: "rr negative", give: Spec{ReadRatio: -0.1, Ops: 100}, wantErr: true},
		{name: "no ops", give: Spec{ReadRatio: 0.5}, wantErr: true},
		{name: "negative krd", give: Spec{ReadRatio: 0.5, Ops: 10, KRDMean: -1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestKeyGeneratorValidation(t *testing.T) {
	if _, err := NewKeyGenerator(0, 10, 1); err == nil {
		t.Error("zero key space should error")
	}
	if _, err := NewKeyGenerator(10, -1, 1); err == nil {
		t.Error("negative KRD should error")
	}
}

func TestKeyGeneratorBounds(t *testing.T) {
	g, err := NewKeyGenerator(100, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if k := g.Next(); k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestKeyGeneratorDeterminism(t *testing.T) {
	a, _ := NewKeyGenerator(1000, 50, 9)
	b, _ := NewKeyGenerator(1000, 50, 9)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestKeyGeneratorUniformWhenKRDZero(t *testing.T) {
	g, _ := NewKeyGenerator(10, 0, 4)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		counts[g.Next()]++
	}
	for k := uint64(0); k < 10; k++ {
		frac := float64(counts[k]) / 100000
		if math.Abs(frac-0.1) > 0.02 {
			t.Errorf("key %d frequency %v deviates from uniform", k, frac)
		}
	}
}

func TestKeyGeneratorReuseDistance(t *testing.T) {
	// Small KRD means short observed reuse distances; large KRD means
	// long ones. Compare medians under the two regimes.
	median := func(krd float64) float64 {
		g, err := NewKeyGenerator(1_000_000, krd, 5)
		if err != nil {
			t.Fatal(err)
		}
		last := make(map[uint64]int)
		var dists []int
		for i := 0; i < 200_000; i++ {
			k := g.Next()
			if prev, ok := last[k]; ok {
				dists = append(dists, i-prev)
			}
			last[k] = i
		}
		if len(dists) == 0 {
			return math.Inf(1)
		}
		// Median via partial sort.
		lo, hi := 0, 0
		target := dists[len(dists)/2]
		for _, d := range dists {
			if d < target {
				lo++
			} else {
				hi++
			}
		}
		_ = lo
		_ = hi
		var sum float64
		for _, d := range dists {
			sum += float64(d)
		}
		return sum / float64(len(dists))
	}
	short := median(50)
	long := median(5000)
	if short >= long {
		t.Errorf("mean reuse distance should grow with KRD: %v vs %v", short, long)
	}
	if short > 500 {
		t.Errorf("KRD=50 mean observed distance %v too large", short)
	}
}

// fakeStore records ops and advances a fake clock.
type fakeStore struct {
	reads, writes int
	finished      bool
}

func (f *fakeStore) Read(uint64)  { f.reads++ }
func (f *fakeStore) Write(uint64) { f.writes++ }
func (f *fakeStore) FinishEpoch() { f.finished = true }
func (f *fakeStore) Clock() float64 {
	return float64(f.reads)*2e-5 + float64(f.writes)*1e-5
}
func (f *fakeStore) KeySpace() int { return 1000 }

var _ Store = (*fakeStore)(nil)

func TestRunMixesOperations(t *testing.T) {
	store := &fakeStore{}
	res, err := Run(store, Spec{ReadRatio: 0.7, KRDMean: 100, Ops: 10000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !store.finished {
		t.Error("Run must call FinishEpoch")
	}
	if res.Reads+res.Writes != 10000 {
		t.Errorf("op count = %d", res.Reads+res.Writes)
	}
	gotRR := float64(res.Reads) / 10000
	if math.Abs(gotRR-0.7) > 0.03 {
		t.Errorf("realized read ratio %v, want ~0.7", gotRR)
	}
	if res.Throughput <= 0 || res.Seconds <= 0 {
		t.Errorf("result %+v not positive", res)
	}
	wantTput := 10000 / res.Seconds
	if math.Abs(res.Throughput-wantTput) > 1e-6 {
		t.Errorf("throughput %v inconsistent with seconds %v", res.Throughput, res.Seconds)
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	if _, err := Run(&fakeStore{}, Spec{ReadRatio: 2, Ops: 10}); err == nil {
		t.Error("invalid spec should error")
	}
}

type stuckStore struct{ fakeStore }

func (s *stuckStore) Clock() float64 { return 0 }

func TestRunDetectsStuckClock(t *testing.T) {
	if _, err := Run(&stuckStore{}, Spec{ReadRatio: 0.5, Ops: 10}); err == nil {
		t.Error("zero elapsed time should error")
	}
}

func TestZipfKeyGeneratorValidation(t *testing.T) {
	if _, err := NewZipfKeyGenerator(0, 1.2, 1); err == nil {
		t.Error("zero key space should error")
	}
	if _, err := NewZipfKeyGenerator(100, 1.0, 1); err == nil {
		t.Error("s <= 1 should error")
	}
}

func TestZipfKeyGeneratorSkew(t *testing.T) {
	g, err := NewZipfKeyGenerator(100_000, 1.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint64]int)
	const n = 200_000
	for i := 0; i < n; i++ {
		k := g.Next()
		if k >= 100_000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Zipfian traffic concentrates: the most popular key must carry far
	// more than the uniform share, and the distinct-key count must be
	// far below the op count.
	var maxCount int
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < n/100 {
		t.Errorf("hottest key has %d of %d accesses; not skewed", maxCount, n)
	}
	if len(counts) > n/2 {
		t.Errorf("%d distinct keys of %d ops; not skewed", len(counts), n)
	}
}

func TestZipfKeyGeneratorDeterminism(t *testing.T) {
	a, _ := NewZipfKeyGenerator(1000, 1.5, 3)
	b, _ := NewZipfKeyGenerator(1000, 1.5, 3)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

// deleterStore extends fakeStore with delete counting.
type deleterStore struct {
	fakeStore

	deletes int
}

func (d *deleterStore) Delete(uint64) { d.deletes++; d.writes++ }

func TestRunMixDeletes(t *testing.T) {
	mix := Mix{Read: 0.5, Update: 0.3, Delete: 0.2}
	store := &deleterStore{}
	res, err := Run(store, Spec{Mix: mix, Ops: 20000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if store.deletes != res.Deletes || res.Writes != res.Updates+res.Deletes {
		t.Errorf("delete accounting: store %d, result %+v", store.deletes, res)
	}
	// Stores without Delete still take the ops as writes.
	plain := &fakeStore{}
	if _, err := Run(plain, Spec{Mix: mix, Ops: 1000, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if plain.writes == 0 {
		t.Error("non-deleter store received no writes")
	}
	if _, err := Run(plain, Spec{Mix: Mix{Read: 0.5, Delete: 2}, Ops: 10}); err == nil {
		t.Error("bad delete fraction should error")
	}
}
