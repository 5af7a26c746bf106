package workload

import (
	"fmt"
	"math"
	"testing"

	"rafiki/internal/golden"
)

func TestMixValidate(t *testing.T) {
	good := Mix{Read: 0.5, Update: 0.2, Insert: 0.1, Delete: 0.1, Scan: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Mix{
		{Read: 0.5, Update: 0.6},                 // sums past 1
		{Read: 1.2, Update: -0.2},                // out of range
		{Read: 0.5, Update: 0.4, Scan: 0.000001}, // sums short of 1... actually 0.900001
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("mix %d (%+v) should fail validation", i, m)
		}
	}
	if !(Mix{}).IsZero() {
		t.Error("zero mix should report IsZero")
	}
	if good.IsZero() {
		t.Error("set mix should not report IsZero")
	}
}

func TestSpecValidateMixFields(t *testing.T) {
	base := Spec{ReadRatio: 0.5, Ops: 10}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"bad distribution", func(s *Spec) { s.Distribution = "pareto" }},
		{"uniform distribution", func(s *Spec) { s.Distribution = "uniform" }},
		{"latest distribution", func(s *Spec) { s.Distribution = "latest" }},
		{"hotspot distribution", func(s *Spec) { s.Distribution = "hotspot" }},
		{"bad mix", func(s *Spec) { s.Mix = Mix{Read: 2} }},
		{"bad ttl fraction", func(s *Spec) { s.TTLFraction = 1.5 }},
		{"ttl fraction without seconds", func(s *Spec) { s.TTLFraction = 0.5 }},
		{"negative scan len", func(s *Spec) { s.ScanLen = -1 }},
	}
	for _, c := range cases {
		s := base
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: spec %+v should fail validation", c.name, s)
		}
	}
}

// bucketHistogram draws n keys and buckets them into 16 equal slices of
// the key space (overflow keys — inserts past the frontier — land in
// the last bucket).
func bucketHistogram(t *testing.T, next func() uint64, keySpace uint64, n int) [16]int {
	t.Helper()
	var h [16]int
	for i := 0; i < n; i++ {
		b := next() / (keySpace / 16)
		if b > 15 {
			b = 15
		}
		h[b]++
	}
	return h
}

// TestGeneratorGoldenHistograms pins the exact fixed-seed bucket
// histograms of every key distribution. math/rand's algorithms are
// frozen, so these counts are stable; any drift means the key streams
// changed and previously collected datasets no longer reproduce.
func TestGeneratorGoldenHistograms(t *testing.T) {
	const keySpace = 4096
	const draws = 100_000
	zipf, err := NewZipfKeyGenerator(keySpace, 1.4, 42)
	if err != nil {
		t.Fatal(err)
	}
	krd, err := NewKeyGenerator(keySpace, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	var text []byte
	for _, g := range []struct {
		name string
		next func() uint64
	}{{"zipfian", zipf.Next}, {"krd", krd.Next}} {
		text = fmt.Appendf(text, "%s %v\n", g.name, bucketHistogram(t, g.next, keySpace, draws))
	}
	golden.Check(t, "testdata/key_histograms.golden", text)
}

func TestSpecShape(t *testing.T) {
	plain := Spec{ReadRatio: 0.7}
	if m := plain.EffectiveMix(); m != (Mix{Read: 0.7, Update: 1 - plain.ReadRatio}) {
		t.Errorf("RR-only effective mix = %+v", m)
	}
	m := MixForShape(0.6, 0.25, 0.1)
	if err := m.Validate(); err != nil {
		t.Fatalf("MixForShape produced invalid mix: %v", err)
	}
	// Scans take 0.25 of all ops; the other 0.75 split 0.6 reads, and
	// 0.1 of the mutations are deletes.
	want := Mix{Read: 0.45, Update: 0.27, Delete: 0.03, Scan: 0.25}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"read", m.Read, want.Read}, {"update", m.Update, want.Update},
		{"insert", m.Insert, want.Insert}, {"delete", m.Delete, want.Delete},
		{"scan", m.Scan, want.Scan},
	} {
		if math.Abs(f.got-f.want) > 1e-12 {
			t.Errorf("MixForShape %s fraction = %v, want %v", f.name, f.got, f.want)
		}
	}
}

// mixStore extends the fake store with every optional capability so
// mixed runs exercise all op routes.
type mixStore struct {
	fakeStore

	deletes   int
	scans     int
	scanRows  int
	ttlWrites int
	maxKey    uint64
}

func (m *mixStore) note(key uint64) {
	if key > m.maxKey {
		m.maxKey = key
	}
}

func (m *mixStore) Read(key uint64)  { m.note(key); m.reads++ }
func (m *mixStore) Write(key uint64) { m.note(key); m.writes++ }
func (m *mixStore) Delete(key uint64) {
	m.note(key)
	m.deletes++
	m.writes++
}

func (m *mixStore) Scan(start uint64, limit int) int {
	m.note(start)
	m.scans++
	rows := limit / 2
	m.scanRows += rows
	return rows
}

func (m *mixStore) WriteTTL(key uint64, ttlSeconds float64) {
	m.note(key)
	m.ttlWrites++
	m.writes++
}

func (m *mixStore) Clock() float64 {
	return float64(m.reads+m.writes+m.scans) * 1e-5
}

// TestRunFullMix drives every op type through one mixed run and checks
// the realized fractions, the insert frontier, and the optional-route
// accounting.
func TestRunFullMix(t *testing.T) {
	store := &mixStore{}
	spec := Spec{
		Mix:         Mix{Read: 0.4, Update: 0.25, Insert: 0.1, Delete: 0.1, Scan: 0.15},
		ScanLen:     32,
		TTLFraction: 0.3,
		TTLSeconds:  5,
		Ops:         40_000,
		Seed:        11,
	}
	res, err := Run(store, spec)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Reads + res.Updates + res.Inserts + res.Deletes + res.Scans
	if total != spec.Ops {
		t.Fatalf("op count %d != %d", total, spec.Ops)
	}
	checks := []struct {
		name string
		got  int
		want float64
	}{
		{"reads", res.Reads, 0.4},
		{"updates", res.Updates, 0.25},
		{"inserts", res.Inserts, 0.1},
		{"deletes", res.Deletes, 0.1},
		{"scans", res.Scans, 0.15},
	}
	for _, c := range checks {
		if frac := float64(c.got) / float64(spec.Ops); math.Abs(frac-c.want) > 0.01 {
			t.Errorf("%s fraction = %v, want ~%v", c.name, frac, c.want)
		}
	}
	if res.Writes != res.Updates+res.Inserts+res.Deletes {
		t.Errorf("Writes = %d, want updates+inserts+deletes = %d",
			res.Writes, res.Updates+res.Inserts+res.Deletes)
	}
	if store.deletes != res.Deletes || store.deletes == 0 {
		t.Errorf("store deletes = %d, result says %d", store.deletes, res.Deletes)
	}
	if store.scans != res.Scans || store.scanRows != res.ScanRows || res.ScanRows == 0 {
		t.Errorf("scan accounting: store (%d ops, %d rows) vs result (%d, %d)",
			store.scans, store.scanRows, res.Scans, res.ScanRows)
	}
	if store.ttlWrites == 0 {
		t.Error("TTL fraction set but no TTL writes issued")
	}
	// TTL writes come out of the update+insert stream (deletes carry no
	// payload) at ~TTLFraction.
	if frac := float64(store.ttlWrites) / float64(res.Updates+res.Inserts); math.Abs(frac-0.3) > 0.03 {
		t.Errorf("TTL write fraction = %v, want ~0.3", frac)
	}
	// Inserts allocate keys past the preloaded space, monotonically.
	if store.maxKey < uint64(store.KeySpace()) {
		t.Errorf("max key %d never passed the key space %d; inserts missing",
			store.maxKey, store.KeySpace())
	}
	wantMax := uint64(store.KeySpace() + res.Inserts - 1)
	if store.maxKey != wantMax {
		t.Errorf("insert frontier reached %d, want %d", store.maxKey, wantMax)
	}
}

// TestRunMixedFallbacks checks that mixed specs degrade gracefully on
// stores without the optional capabilities: deletes and TTL'd writes
// become plain writes, scans become reads.
func TestRunMixedFallbacks(t *testing.T) {
	store := &fakeStore{}
	spec := Spec{
		Mix:         Mix{Read: 0.3, Update: 0.3, Delete: 0.2, Scan: 0.2},
		TTLFraction: 0.5,
		TTLSeconds:  1,
		Ops:         10_000,
		Seed:        3,
	}
	res, err := Run(store, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scans == 0 || res.Deletes == 0 {
		t.Fatalf("degenerate mix: %+v", res)
	}
	if store.reads != res.Reads+res.Scans {
		t.Errorf("scan fallback: store reads %d, want reads+scans = %d",
			store.reads, res.Reads+res.Scans)
	}
	if store.writes != res.Writes {
		t.Errorf("write fallback: store writes %d, want %d", store.writes, res.Writes)
	}
	if res.ScanRows != 0 {
		t.Errorf("scan fallback returned %d rows from a store with no scans", res.ScanRows)
	}
}

// TestRunMixedDeterminism pins that a mixed spec replays an identical
// op schedule for the same seed and a different one for another seed.
func TestRunMixedDeterminism(t *testing.T) {
	run := func(seed int64) (Result, *mixStore) {
		store := &mixStore{}
		res, err := Run(store, Spec{
			Mix:          Mix{Read: 0.5, Update: 0.2, Insert: 0.1, Delete: 0.1, Scan: 0.1},
			Distribution: DistZipfian,
			Ops:          5_000,
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, store
	}
	a, sa := run(21)
	b, sb := run(21)
	if a != b || sa.maxKey != sb.maxKey {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	c, _ := run(22)
	if a.Reads == c.Reads && a.Scans == c.Scans && a.Inserts == c.Inserts {
		t.Error("different seeds produced identical op schedules")
	}
}

// opStreamStore writes the op stream it is driven with as text: one line
// of op type and key per op, in the order they were sent.
type opStreamStore struct {
	ops   []byte
	clock float64
}

func (s *opStreamStore) op(kind byte, key uint64) {
	s.ops = fmt.Appendf(s.ops, "%c %d\n", kind, key)
	s.clock += 1e-4
}
func (s *opStreamStore) Read(k uint64)   { s.op('r', k) }
func (s *opStreamStore) Write(k uint64)  { s.op('w', k) }
func (s *opStreamStore) Delete(k uint64) { s.op('d', k) }
func (s *opStreamStore) FinishEpoch()    {}
func (s *opStreamStore) Clock() float64  { return s.clock }
func (s *opStreamStore) KeySpace() int   { return 10_000 }

// TestRunSpecGolden pins the op stream of RR-only and
// read/update/delete specs, so previously collected datasets remain
// reproducible.
func TestRunSpecGolden(t *testing.T) {
	var text []byte
	for _, spec := range []Spec{
		{ReadRatio: 0, KRDMean: 100, Seed: 6},
		{ReadRatio: 0.3, KRDMean: 20_000, Seed: 7},
		{ReadRatio: 0.7, KRDMean: 100, Seed: 6},
		{ReadRatio: 1, Seed: 8},
		{Mix: Mix{Read: 0.7, Update: 0.24, Delete: 0.06}, KRDMean: 100, Seed: 6},
		{Mix: Mix{Read: 0.5, Update: 0.3, Delete: 0.2}, Seed: 8, Ops: 20_000},
	} {
		if spec.Ops == 0 {
			spec.Ops = 10_000
		}
		store := &opStreamStore{}
		res, err := Run(store, spec)
		if err != nil {
			t.Fatal(err)
		}
		text = fmt.Appendf(text, "spec rr %v mix %+v krd %v seed %d ops %d\n reads %d updates %d inserts %d deletes %d scans %d writes %d\n op stream digest %s\n",
			spec.ReadRatio, spec.Mix, spec.KRDMean, spec.Seed, spec.Ops,
			res.Reads, res.Updates, res.Inserts, res.Deletes, res.Scans, res.Writes, golden.Digest(store.ops))
	}
	golden.Check(t, "testdata/run_spec.golden", text)
}

// TestMixThresholdsCatchAll: the last non-zero class absorbs whatever
// the fractions' sum rounds away, so a draw just under 1 cannot land in
// a class the mix gives zero weight.
func TestMixThresholdsCatchAll(t *testing.T) {
	top := math.Nextafter(1, 0) // the largest value rng.Float64 can return
	short := 0                  // mixes whose plain running sum ends below 1
	for i := 0; i <= 1000; i++ {
		rr := float64(i) / 1000
		for _, m := range []Mix{
			Spec{ReadRatio: rr}.EffectiveMix(),
			MixForShape(rr, 0, 0.05),
			{Update: rr, Insert: 1 - rr},
		} {
			if m.Read+m.Update+m.Insert+m.Delete < 1 {
				short++
			}
			r, u, i, d := m.thresholds()
			cum := []float64{r, u, i, d, 1}
			fracs := []float64{m.Read, m.Update, m.Insert, m.Delete, m.Scan}
			class := 0
			for top >= cum[class] {
				class++
			}
			if fracs[class] == 0 {
				t.Fatalf("mix %+v: draw %v lands in zero-weight class %d (thresholds %v)", m, top, class, cum)
			}
		}
	}
	if short == 0 {
		t.Error("no mix in the grid sums below 1; the test does not reach the rounding case")
	}
	// A mix that includes scans keeps its boundaries untouched.
	m := Mix{Read: 0.53, Update: 0.28, Insert: 0.10, Delete: 0.07, Scan: 0.02}
	r, u, i, d := m.thresholds()
	if r != m.Read || u != m.Read+m.Update || i != m.Read+m.Update+m.Insert || d != m.Read+m.Update+m.Insert+m.Delete {
		t.Errorf("full mix thresholds moved: %v %v %v %v", r, u, i, d)
	}
}

// TestRunEveryDistribution drives the full driver once per key
// distribution so the spec-to-generator routing (including the
// defaulted Zipf exponent) is exercised through Run, not only via the
// generators' own unit tests.
func TestRunEveryDistribution(t *testing.T) {
	for _, dist := range []string{DistKRD, DistZipfian} {
		store := &mixStore{}
		res, err := Run(store, Spec{
			Mix:          Mix{Read: 0.5, Update: 0.3, Delete: 0.1, Scan: 0.1},
			Distribution: dist,
			Ops:          2000,
			Seed:         9,
		})
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if res.Reads == 0 || res.Scans == 0 {
			t.Errorf("%s: reads=%d scans=%d, want both > 0", dist, res.Reads, res.Scans)
		}
	}
	if _, err := Run(&mixStore{}, Spec{
		Mix: Mix{Read: 1}, Distribution: "bogus", Ops: 10,
	}); err == nil {
		t.Error("unknown distribution should fail Run")
	}
}
