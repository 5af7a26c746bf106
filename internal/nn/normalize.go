package nn

import "fmt"

// Normalizer maps features linearly into [-1, 1] per dimension, the
// mapminmax preprocessing MATLAB's toolbox applies before training.
type Normalizer struct {
	Min, Max []float64
}

// FitNormalizer learns per-dimension ranges from rows.
func FitNormalizer(rows [][]float64) (*Normalizer, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("nn: no data to normalize")
	}
	dim := len(rows[0])
	n := &Normalizer{
		Min: make([]float64, dim),
		Max: make([]float64, dim),
	}
	copy(n.Min, rows[0])
	copy(n.Max, rows[0])
	for _, r := range rows[1:] {
		if len(r) != dim {
			return nil, fmt.Errorf("nn: ragged row width %d, want %d", len(r), dim)
		}
		for j, v := range r {
			if v < n.Min[j] {
				n.Min[j] = v
			}
			if v > n.Max[j] {
				n.Max[j] = v
			}
		}
	}
	return n, nil
}

// Apply maps one row into [-1, 1]. Constant dimensions map to 0.
func (n *Normalizer) Apply(row []float64) ([]float64, error) {
	out := make([]float64, len(row))
	if err := n.ApplyInto(out, row); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInto is Apply into a caller-owned buffer (length len(row)).
func (n *Normalizer) ApplyInto(out, row []float64) error {
	if len(row) != len(n.Min) {
		return fmt.Errorf("nn: row width %d, want %d", len(row), len(n.Min))
	}
	if len(out) != len(row) {
		return fmt.Errorf("nn: normalize out length %d, want %d", len(out), len(row))
	}
	return n.applyStride(out, 1, row)
}

// applyStride is ApplyInto writing feature j to out[j*stride].
func (n *Normalizer) applyStride(out []float64, stride int, row []float64) error {
	if len(row) != len(n.Min) {
		return fmt.Errorf("nn: row width %d, want %d", len(row), len(n.Min))
	}
	for j, v := range row {
		span := n.Max[j] - n.Min[j]
		if span == 0 {
			out[j*stride] = 0
			continue
		}
		out[j*stride] = 2*(v-n.Min[j])/span - 1
	}
	return nil
}

// ScalarNormalizer maps a scalar target into [-1, 1] and back.
type ScalarNormalizer struct {
	Min, Max float64
}

// FitScalar learns the target range.
func FitScalar(ys []float64) (*ScalarNormalizer, error) {
	if len(ys) == 0 {
		return nil, fmt.Errorf("nn: no targets to normalize")
	}
	s := &ScalarNormalizer{Min: ys[0], Max: ys[0]}
	for _, y := range ys[1:] {
		if y < s.Min {
			s.Min = y
		}
		if y > s.Max {
			s.Max = y
		}
	}
	return s, nil
}

// Apply maps y into [-1, 1].
func (s *ScalarNormalizer) Apply(y float64) float64 {
	span := s.Max - s.Min
	if span == 0 {
		return 0
	}
	return 2*(y-s.Min)/span - 1
}

// Invert maps a normalized prediction back to the original scale.
func (s *ScalarNormalizer) Invert(y float64) float64 {
	span := s.Max - s.Min
	if span == 0 {
		return s.Min
	}
	return (y+1)/2*span + s.Min
}
