// Package config models NoSQL datastore configuration spaces: the
// parameters, their kinds (categorical, integer, continuous), bounds,
// defaults, and the sweep values used by ANOVA. It provides the
// Cassandra and ScyllaDB spaces used throughout the paper, and the
// encoding of (workload, configuration) into the feature vectors
// consumed by the surrogate model and the genetic algorithm.
package config

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind describes how a parameter's values behave.
type Kind int

// Parameter kinds.
const (
	Categorical Kind = iota + 1 // unordered values, encoded as an index
	Integer                     // ordered integer values
	Continuous                  // real-valued
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Integer:
		return "integer"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Parameter describes one tunable configuration parameter.
type Parameter struct {
	// Name is the configuration key, matching cassandra.yaml naming.
	Name string
	// Kind selects categorical/integer/continuous semantics.
	Kind Kind
	// Min and Max bound the value. For categorical parameters Min is 0
	// and Max is len(Values)-1.
	Min, Max float64
	// Default is the value shipped in the datastore's default
	// configuration file.
	Default float64
	// Values names the levels of a categorical parameter.
	Values []string
	// Sweep lists the values probed by the ANOVA one-parameter-at-a-time
	// stage. The paper uses all levels for categorical parameters and 4
	// values for numeric ones.
	Sweep []float64
	// Group names a mechanism several parameters jointly control (e.g.
	// memtable flushing). The key-parameter selection keeps one
	// representative per group, mirroring Section 4.5's consolidation
	// of the memtable parameters into memtable_cleanup_threshold.
	Group string
}

// Clamp forces v into the parameter's valid domain, rounding integers
// and categorical indexes to the nearest level.
func (p Parameter) Clamp(v float64) float64 {
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	if p.Kind == Integer || p.Kind == Categorical {
		v = math.Round(v)
	}
	return v
}

// Feasible reports whether v is a valid setting without repair: within
// bounds and integral where required. Validate rejects an infeasible
// value rather than silently fixing it; the searchers repair every
// candidate (Clamp's rule) before scoring it, so none reaches a config.
func (p Parameter) Feasible(v float64) bool {
	if v < p.Min || v > p.Max {
		return false
	}
	if p.Kind == Integer || p.Kind == Categorical {
		return v == math.Round(v)
	}
	return true
}

// ValueName renders a value for display (categorical values by name).
func (p Parameter) ValueName(v float64) string {
	if p.Kind == Categorical {
		idx := int(math.Round(v))
		if idx >= 0 && idx < len(p.Values) {
			return p.Values[idx]
		}
	}
	if p.Kind == Integer || p.Kind == Categorical {
		return fmt.Sprintf("%d", int(math.Round(v)))
	}
	return fmt.Sprintf("%.3g", v)
}

// Levels returns the number of distinct settings of the parameter when
// numeric domains are quantized at sweep granularity. Used to size
// search spaces (Section 3.2's prod n_i).
func (p Parameter) Levels() int {
	switch p.Kind {
	case Categorical:
		return len(p.Values)
	case Integer:
		return int(p.Max-p.Min) + 1
	default:
		if len(p.Sweep) > 0 {
			return len(p.Sweep) * 2 // sweep granularity refined 2x
		}
		return 10
	}
}

// Config is a full assignment of values to parameters, keyed by
// parameter name. Missing keys take the space default (the paper's
// shorthand C = {v1=5, v3=9}).
type Config map[string]float64

// Clone returns an independent copy of c.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Space is an ordered collection of parameters defining a datastore's
// tunable configuration space.
type Space struct {
	// Name identifies the datastore ("cassandra", "scylladb").
	Name string
	// KeyNames lists the designated key parameters in surrogate feature
	// order, once the ANOVA stage (or the paper's published selection)
	// has chosen them.
	KeyNames []string

	params []Parameter
	index  map[string]int
	// ignored marks parameters whose user-provided settings the engine's
	// internal auto-tuner overrides (ScyllaDB, Section 4.10).
	ignored map[string]bool
	// groupReps maps a Group label to the parameter chosen to represent
	// it during key-parameter selection.
	groupReps map[string]string
}

// NewSpace builds a space from a parameter list.
func NewSpace(name string, params []Parameter) (*Space, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("config: space %q has no parameters", name)
	}
	s := &Space{
		Name:      name,
		params:    make([]Parameter, len(params)),
		index:     make(map[string]int, len(params)),
		ignored:   make(map[string]bool),
		groupReps: make(map[string]string),
	}
	copy(s.params, params)
	for i, p := range s.params {
		if p.Name == "" {
			return nil, fmt.Errorf("config: parameter %d has empty name", i)
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("config: duplicate parameter %q", p.Name)
		}
		if p.Max < p.Min {
			return nil, fmt.Errorf("config: parameter %q has inverted bounds", p.Name)
		}
		if p.Kind == Categorical && len(p.Values) == 0 {
			return nil, fmt.Errorf("config: categorical parameter %q has no values", p.Name)
		}
		if !p.Feasible(p.Clamp(p.Default)) {
			return nil, fmt.Errorf("config: parameter %q default %v infeasible", p.Name, p.Default)
		}
		s.index[p.Name] = i
	}
	return s, nil
}

// Params returns the parameters in declaration order (copy).
func (s *Space) Params() []Parameter {
	out := make([]Parameter, len(s.params))
	copy(out, s.params)
	return out
}

// Len returns the number of parameters in the space.
func (s *Space) Len() int { return len(s.params) }

// Index returns the declaration-order index of name, interning the
// string parameter name into a dense position. Hot paths resolve names
// to indices once and thereafter address resolved configurations as
// []float64 vectors (see ResolveInto) instead of map[string]float64.
//
//rafiki:hot
func (s *Space) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// ParamAt returns the parameter at declaration-order index i.
func (s *Space) ParamAt(i int) Parameter { return s.params[i] }

// ResolveInto writes the effective value of every parameter — the
// override in c where present, the parameter default otherwise — into
// dst in declaration order, growing dst as needed, and returns it.
// The dense vector form is the hot-path representation of a resolved
// configuration: readers address it by interned index (see Index) with
// no map lookups and no per-call allocation once dst has capacity.
// Unknown names in c are ignored; Validate catches them at the public
// boundary.
//
//rafiki:hot
//rafiki:scratch
func (s *Space) ResolveInto(dst []float64, c Config) []float64 {
	if cap(dst) < len(s.params) {
		dst = make([]float64, len(s.params))
	}
	dst = dst[:len(s.params)]
	for i := range s.params {
		dst[i] = s.params[i].Default
	}
	for name, v := range c {
		if i, ok := s.index[name]; ok {
			dst[i] = v
		}
	}
	return dst
}

// Param looks a parameter up by name.
func (s *Space) Param(name string) (Parameter, bool) {
	i, ok := s.index[name]
	if !ok {
		return Parameter{}, false
	}
	return s.params[i], true
}

// MustParam looks up a parameter that is known to exist (panics
// otherwise; for use with the package's own space constructors).
func (s *Space) MustParam(name string) Parameter {
	p, ok := s.Param(name)
	if !ok {
		panic(fmt.Sprintf("config: unknown parameter %q in space %q", name, s.Name))
	}
	return p
}

// Default returns a configuration with every parameter at its default.
func (s *Space) Default() Config {
	c := make(Config, len(s.params))
	for _, p := range s.params {
		c[p.Name] = p.Default
	}
	return c
}

// Value returns the effective value of name in c, falling back to the
// parameter default when unset.
func (s *Space) Value(c Config, name string) (float64, error) {
	p, ok := s.Param(name)
	if !ok {
		return 0, fmt.Errorf("config: unknown parameter %q", name)
	}
	if v, ok := c[name]; ok {
		return v, nil
	}
	return p.Default, nil
}

// Validate checks that every assignment in c names a known parameter
// and is feasible. Names are checked in sorted order so the reported
// error never depends on map iteration order.
func (s *Space) Validate(c Config) error {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := c[name]
		p, ok := s.Param(name)
		if !ok {
			return fmt.Errorf("config: unknown parameter %q", name)
		}
		if !p.Feasible(v) {
			return fmt.Errorf("config: parameter %q value %v infeasible (kind %v, bounds [%v, %v])",
				name, v, p.Kind, p.Min, p.Max)
		}
	}
	return nil
}

// Clamp returns a copy of c with every value forced into its domain.
func (s *Space) Clamp(c Config) Config {
	out := c.Clone()
	for name, v := range out {
		if p, ok := s.Param(name); ok {
			out[name] = p.Clamp(v)
		}
	}
	return out
}

// SetIgnored marks parameters overridden by an internal auto-tuner.
func (s *Space) SetIgnored(names ...string) {
	for _, n := range names {
		s.ignored[n] = true
	}
}

// Ignored reports whether the engine ignores user settings for name.
func (s *Space) Ignored(name string) bool { return s.ignored[name] }

// SetGroupRepresentative declares which parameter stands in for a
// mechanism group during key-parameter selection.
func (s *Space) SetGroupRepresentative(group, param string) {
	s.groupReps[group] = param
}

// GroupRepresentative returns the representative for group, or "".
func (s *Space) GroupRepresentative(group string) string {
	return s.groupReps[group]
}

// KeyParams returns the Parameter definitions for KeyNames, in order.
func (s *Space) KeyParams() ([]Parameter, error) {
	out := make([]Parameter, 0, len(s.KeyNames))
	for _, n := range s.KeyNames {
		p, ok := s.Param(n)
		if !ok {
			return nil, fmt.Errorf("config: key parameter %q not in space", n)
		}
		out = append(out, p)
	}
	return out, nil
}

// FeatureVector encodes the workload features plus the key-parameter
// values of c in KeyNames order: the input layout of Equation (2),
// fnet(W, CM, CW, FCZ, MT, CC), where W is the workload
// characterization: the paper's scalar RR, followed by the scan ratio
// when the training data has scans (see core.Dataset.Features).
func (s *Space) FeatureVector(workload []float64, c Config) ([]float64, error) {
	if len(workload) == 0 {
		return nil, fmt.Errorf("config: empty workload features")
	}
	out := make([]float64, 0, len(s.KeyNames)+len(workload))
	out = append(out, workload...)
	for _, n := range s.KeyNames {
		v, err := s.Value(c, n)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ConfigFromVector reverses FeatureVector's configuration part: values
// must be in KeyNames order (no leading read ratio).
func (s *Space) ConfigFromVector(values []float64) (Config, error) {
	if len(values) != len(s.KeyNames) {
		return nil, fmt.Errorf("config: vector length %d, want %d key parameters", len(values), len(s.KeyNames))
	}
	c := make(Config, len(values))
	for i, n := range s.KeyNames {
		c[n] = values[i]
	}
	return c, nil
}

// SearchSpaceSize returns the product of key-parameter level counts
// (the paper's ~2,560 configurations for Cassandra's 5 key parameters).
func (s *Space) SearchSpaceSize() (int, error) {
	ps, err := s.KeyParams()
	if err != nil {
		return 0, err
	}
	size := 1
	for _, p := range ps {
		size *= p.Levels()
	}
	return size, nil
}

// Describe renders a config compactly, listing only values that differ
// from the defaults (the paper's shorthand notation).
func (s *Space) Describe(c Config) string {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	var parts []string
	for _, name := range names {
		p, ok := s.Param(name)
		if !ok {
			continue
		}
		if c[name] == p.Default {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s", name, p.ValueName(c[name])))
	}
	if len(parts) == 0 {
		return "{default}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
