package config

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		give Kind
		want string
	}{
		{Categorical, "categorical"},
		{Integer, "integer"},
		{Continuous, "continuous"},
		{Kind(42), "Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestParameterClamp(t *testing.T) {
	p := Parameter{Name: "x", Kind: Integer, Min: 2, Max: 10}
	tests := []struct {
		give, want float64
	}{
		{1, 2},
		{11, 10},
		{5.4, 5},
		{5.6, 6},
		{7, 7},
	}
	for _, tt := range tests {
		if got := p.Clamp(tt.give); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
	f := Parameter{Name: "f", Kind: Continuous, Min: 0.1, Max: 0.9}
	if got := f.Clamp(0.55); got != 0.55 {
		t.Errorf("continuous Clamp changed in-range value: %v", got)
	}
}

func TestParameterFeasible(t *testing.T) {
	p := Parameter{Name: "x", Kind: Integer, Min: 2, Max: 10}
	if p.Feasible(5.5) {
		t.Error("non-integer should be infeasible for integer parameter")
	}
	if !p.Feasible(5) {
		t.Error("5 should be feasible")
	}
	if p.Feasible(11) || p.Feasible(1) {
		t.Error("out-of-bounds should be infeasible")
	}
	c := Parameter{Name: "c", Kind: Continuous, Min: 0, Max: 1}
	if !c.Feasible(0.33) {
		t.Error("in-range continuous should be feasible")
	}
}

func TestParameterValueName(t *testing.T) {
	cat := Parameter{Name: "cm", Kind: Categorical, Min: 0, Max: 1, Values: []string{"SizeTiered", "Leveled"}}
	if got := cat.ValueName(1); got != "Leveled" {
		t.Errorf("ValueName(1) = %q", got)
	}
	if got := cat.ValueName(7); got != "7" {
		t.Errorf("out-of-range categorical = %q", got)
	}
	in := Parameter{Name: "i", Kind: Integer}
	if got := in.ValueName(42); got != "42" {
		t.Errorf("integer ValueName = %q", got)
	}
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace("empty", nil); err == nil {
		t.Error("empty space should error")
	}
	if _, err := NewSpace("dup", []Parameter{
		{Name: "a", Kind: Integer, Min: 0, Max: 1},
		{Name: "a", Kind: Integer, Min: 0, Max: 1},
	}); err == nil {
		t.Error("duplicate parameter should error")
	}
	if _, err := NewSpace("inverted", []Parameter{
		{Name: "a", Kind: Integer, Min: 5, Max: 1},
	}); err == nil {
		t.Error("inverted bounds should error")
	}
	if _, err := NewSpace("cat", []Parameter{
		{Name: "a", Kind: Categorical, Min: 0, Max: 1},
	}); err == nil {
		t.Error("categorical without values should error")
	}
	if _, err := NewSpace("noname", []Parameter{
		{Kind: Integer, Min: 0, Max: 1},
	}); err == nil {
		t.Error("unnamed parameter should error")
	}
}

func TestCassandraSpace(t *testing.T) {
	s := Cassandra()
	if len(s.Params()) < 25 {
		t.Errorf("Cassandra space has %d params, want >= 25 (paper Section 3.4)", len(s.Params()))
	}
	if len(s.KeyNames) != 5 {
		t.Fatalf("key parameter count = %d, want 5", len(s.KeyNames))
	}
	def := s.Default()
	if err := s.Validate(def); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cm := s.MustParam(ParamCompactionStrategy)
	if cm.Kind != Categorical || cm.Default != CompactionSizeTiered {
		t.Errorf("compaction strategy default = %+v", cm)
	}
	cw := s.MustParam(ParamConcurrentWrites)
	if cw.Default != 32 {
		t.Errorf("concurrent_writes default = %v, want 32", cw.Default)
	}
	mt := s.MustParam(ParamMemtableCleanup)
	if mt.Kind != Continuous || math.Abs(mt.Default-0.11) > 1e-12 {
		t.Errorf("memtable_cleanup_threshold = %+v", mt)
	}
}

func TestSearchSpaceSize(t *testing.T) {
	s := Cassandra()
	size, err := s.SearchSpaceSize()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Section 3.5: the 5 key parameters, even broadly discretized,
	// represent thousands of configurations.
	if size < 2000 {
		t.Errorf("search space size %d too small to be meaningful", size)
	}
}

func TestScyllaSpace(t *testing.T) {
	s := ScyllaDB()
	if !s.Ignored(ParamFileCacheSize) {
		t.Error("ScyllaDB should ignore file_cache_size_in_mb")
	}
	if s.Ignored(ParamCompactionStrategy) {
		t.Error("ScyllaDB should honor compaction strategy")
	}
	for _, n := range s.KeyNames {
		if s.Ignored(n) {
			t.Errorf("key parameter %q is ignored by the auto-tuner", n)
		}
		if _, ok := s.Param(n); !ok {
			t.Errorf("key parameter %q missing from space", n)
		}
	}
}

func TestValueFallsBackToDefault(t *testing.T) {
	s := Cassandra()
	c := Config{ParamConcurrentWrites: 64}
	v, err := s.Value(c, ParamConcurrentWrites)
	if err != nil || v != 64 {
		t.Errorf("explicit value = %v, %v", v, err)
	}
	v, err = s.Value(c, ParamFileCacheSize)
	if err != nil || v != 512 {
		t.Errorf("default fallback = %v, %v; want 512", v, err)
	}
	if _, err := s.Value(c, "no_such_param"); err == nil {
		t.Error("unknown parameter should error")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	s := Cassandra()
	tests := []struct {
		name string
		give Config
	}{
		{name: "unknown param", give: Config{"bogus": 1}},
		{name: "out of bounds", give: Config{ParamConcurrentWrites: 1000}},
		{name: "non-integer", give: Config{ParamConcurrentWrites: 31.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.Validate(tt.give); err == nil {
				t.Errorf("Validate(%v) should error", tt.give)
			}
		})
	}
	if err := s.Validate(Config{ParamMemtableCleanup: 0.25}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestClampConfig(t *testing.T) {
	s := Cassandra()
	c := Config{ParamConcurrentWrites: 1000, ParamMemtableCleanup: -4}
	out := s.Clamp(c)
	if out[ParamConcurrentWrites] != 128 {
		t.Errorf("clamped CW = %v, want 128", out[ParamConcurrentWrites])
	}
	if out[ParamMemtableCleanup] != 0.05 {
		t.Errorf("clamped MT = %v, want 0.05", out[ParamMemtableCleanup])
	}
	// Original untouched.
	if c[ParamConcurrentWrites] != 1000 {
		t.Error("Clamp mutated its input")
	}
}

func TestFeatureVectorRoundTrip(t *testing.T) {
	s := Cassandra()
	c := Config{
		ParamCompactionStrategy:   CompactionLeveled,
		ParamConcurrentWrites:     64,
		ParamFileCacheSize:        1024,
		ParamMemtableCleanup:      0.3,
		ParamConcurrentCompactors: 8,
	}
	vec, err := s.FeatureVector([]float64{0.7, 0.2, 0.8}, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 8 {
		t.Fatalf("feature vector length %d, want 8 (Eq. 2 plus shape axes)", len(vec))
	}
	if vec[0] != 0.7 || vec[1] != 0.2 || vec[2] != 0.8 {
		t.Errorf("workload features = %v", vec[:3])
	}
	back, err := s.ConfigFromVector(vec[3:])
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range s.KeyNames {
		if back[n] != c[n] {
			t.Errorf("round trip %s = %v, want %v", n, back[n], c[n])
		}
	}
	if _, err := s.ConfigFromVector(vec); err == nil {
		t.Error("wrong-length vector should error")
	}
}

func TestFeatureVectorUsesDefaults(t *testing.T) {
	s := Cassandra()
	vec, err := s.FeatureVector([]float64{0.5}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if vec[1] != CompactionSizeTiered || vec[2] != 32 {
		t.Errorf("defaults not applied: %v", vec)
	}
}

func TestDescribe(t *testing.T) {
	s := Cassandra()
	if got := s.Describe(s.Default()); got != "{default}" {
		t.Errorf("Describe(default) = %q", got)
	}
	c := Config{ParamConcurrentWrites: 64, ParamCompactionStrategy: CompactionLeveled}
	got := s.Describe(c)
	if !strings.Contains(got, "concurrent_writes=64") || !strings.Contains(got, "Leveled") {
		t.Errorf("Describe = %q", got)
	}
}

func TestConfigClone(t *testing.T) {
	c := Config{"a": 1}
	d := c.Clone()
	d["a"] = 2
	if c["a"] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestMustParamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParam on unknown name should panic")
		}
	}()
	Cassandra().MustParam("nope")
}

// Property: Clamp always yields a feasible value for integer params.
func TestClampFeasibleProperty(t *testing.T) {
	s := Cassandra()
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		for _, p := range s.Params() {
			if !p.Feasible(p.Clamp(raw)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKeyParamsOrder(t *testing.T) {
	s := Cassandra()
	ps, err := s.KeyParams()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		ParamCompactionStrategy,
		ParamConcurrentWrites,
		ParamFileCacheSize,
		ParamMemtableCleanup,
		ParamConcurrentCompactors,
	}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("key param %d = %q, want %q", i, p.Name, want[i])
		}
	}
	s.KeyNames = append(s.KeyNames, "missing")
	if _, err := s.KeyParams(); err == nil {
		t.Error("missing key param should error")
	}
}

func TestCassandraCompactionDomain(t *testing.T) {
	s := Cassandra()
	p := s.MustParam(ParamCompactionStrategy)
	if p.Max != CompactionLeveled || len(p.Sweep) != 2 || len(p.Values) != 2 {
		t.Errorf("compaction domain: %+v", p)
	}
	if got := s.GroupRepresentative(GroupMemtableFlush); got != ParamMemtableCleanup {
		t.Errorf("group representative = %q", got)
	}
	if got := s.GroupRepresentative("no-such-group"); got != "" {
		t.Errorf("unknown group representative = %q", got)
	}
	// Strategy 2 is Cassandra's TimeWindowCompactionStrategy, which the
	// paper's footnote 5 excludes.
	if err := s.Validate(Config{ParamCompactionStrategy: 2}); err == nil {
		t.Error("Cassandra space should reject compaction strategy 2")
	}
}

func TestSpaceIndexAccessors(t *testing.T) {
	s := Cassandra()
	if s.Len() != len(s.Params()) {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(s.Params()))
	}
	for i, p := range s.Params() {
		j, ok := s.Index(p.Name)
		if !ok || j != i {
			t.Errorf("Index(%q) = %d,%v, want %d,true", p.Name, j, ok, i)
		}
		if got := s.ParamAt(i); got.Name != p.Name {
			t.Errorf("ParamAt(%d) = %q, want %q", i, got.Name, p.Name)
		}
	}
	if _, ok := s.Index("no_such_parameter"); ok {
		t.Error("Index accepted an unknown parameter name")
	}
}

func TestResolveInto(t *testing.T) {
	s := Cassandra()
	p := s.Params()[0]
	cfg := Config{p.Name: p.Max, "no_such_parameter": 42}

	// Nil destination: allocates, defaults everywhere except the set key.
	v := s.ResolveInto(nil, cfg)
	if len(v) != s.Len() {
		t.Fatalf("len = %d, want %d", len(v), s.Len())
	}
	if v[0] != p.Max {
		t.Errorf("v[0] = %v, want the configured %v", v[0], p.Max)
	}
	for i := 1; i < len(v); i++ {
		if v[i] != s.ParamAt(i).Default {
			t.Errorf("v[%d] = %v, want default %v", i, v[i], s.ParamAt(i).Default)
		}
	}

	// Reuse: a big-enough destination must be reused in place, and stale
	// contents from the previous resolve must be overwritten.
	w := s.ResolveInto(v, nil)
	if &w[0] != &v[0] {
		t.Error("ResolveInto reallocated a destination with sufficient capacity")
	}
	for i := range w {
		if w[i] != s.ParamAt(i).Default {
			t.Errorf("reused w[%d] = %v, want default %v", i, w[i], s.ParamAt(i).Default)
		}
	}

	// Undersized destination grows.
	small := make([]float64, 0, 1)
	g := s.ResolveInto(small, cfg)
	if len(g) != s.Len() || g[0] != p.Max {
		t.Errorf("grown resolve = len %d g[0] %v, want len %d / %v", len(g), g[0], s.Len(), p.Max)
	}
}
