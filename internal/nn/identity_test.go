package nn

import (
	"math"
	"math/rand"
	"testing"
)

// oracleWS is the row-at-a-time scratch the oracles below run on.
type oracleWS struct {
	nx   []float64
	ws   Workspace
	outs []float64
}

// oracleForward is Network.ForwardWS as it was before inference moved to
// the layer-major kernel: one row, one member, one layer at a time.
func oracleForward(n *Network, ws *Workspace, x []float64) (float64, error) {
	acts, err := n.forwardWS(ws, x)
	if err != nil {
		return 0, err
	}
	return acts[len(acts)-1][0], nil
}

// oraclePredict is Model.predictWS as it was before the layer-major
// kernel, verbatim but for the oracle's own scratch type: the reference
// Predict and every PredictBatchInto row must match bit for bit.
func oraclePredict(m *Model, w *oracleWS, x []float64) (float64, error) {
	if len(w.nx) != len(m.inNorm.Min) {
		w.nx = make([]float64, len(m.inNorm.Min))
	}
	if err := m.inNorm.ApplyInto(w.nx, x); err != nil {
		return 0, err
	}
	var sum float64
	for _, net := range m.nets {
		out, err := oracleForward(net, &w.ws, w.nx)
		if err != nil {
			return 0, err
		}
		sum += out
	}
	return m.outNorm.Invert(sum / float64(len(m.nets))), nil
}

// oraclePredictWithStd is Model.PredictWithStd as it was before the
// layer-major kernel, verbatim but for the oracle's scratch.
func oraclePredictWithStd(m *Model, w *oracleWS, x []float64) (mean, std float64, err error) {
	if len(w.nx) != len(m.inNorm.Min) {
		w.nx = make([]float64, len(m.inNorm.Min))
	}
	if err := m.inNorm.ApplyInto(w.nx, x); err != nil {
		return 0, 0, err
	}
	if cap(w.outs) < len(m.nets) {
		w.outs = make([]float64, len(m.nets))
	}
	outs := w.outs[:len(m.nets)]
	var sum float64
	for i, net := range m.nets {
		out, err := oracleForward(net, &w.ws, w.nx)
		if err != nil {
			return 0, 0, err
		}
		outs[i] = m.outNorm.Invert(out)
		sum += outs[i]
	}
	mean = sum / float64(len(outs))
	if len(outs) < 2 {
		return mean, 0, nil
	}
	var ss float64
	for _, o := range outs {
		d := o - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(outs)-1)), nil
}

// identityModel is an untrained ensemble of members nets over in inputs:
// weights tripled so that hidden pre-activations land on both sides of
// tanh's rational/Exp split, and one constant input dimension.
func identityModel(rng *rand.Rand, in int, hidden []int, members int) *Model {
	norm := &Normalizer{Min: make([]float64, in), Max: make([]float64, in)}
	for j := range norm.Min {
		norm.Min[j] = float64(j) - 3
		norm.Max[j] = norm.Min[j] + 1 + rng.Float64()*20
	}
	norm.Max[in/2] = norm.Min[in/2]
	m := &Model{inNorm: norm, outNorm: &ScalarNormalizer{Min: 4000, Max: 91000}}
	for k := 0; k < members; k++ {
		net, err := NewNetwork(in, hidden, rng)
		if err != nil {
			panic(err)
		}
		for i := range net.Weights {
			net.Weights[i] *= 3
		}
		m.nets = append(m.nets, net)
	}
	return m
}

// identityRows draws n raw rows whose first shared features are the same
// in every row (the workload vector of a GA brood), with duplicates.
func identityRows(rng *rand.Rand, m *Model, n, shared int) [][]float64 {
	in := len(m.inNorm.Min)
	draw := func(j int) float64 {
		return m.inNorm.Min[j] - 1 + rng.Float64()*(m.inNorm.Max[j]-m.inNorm.Min[j]+2)
	}
	prefix := make([]float64, in)
	for j := range prefix {
		prefix[j] = draw(j)
	}
	rows := make([][]float64, n)
	for r := range rows {
		row := append([]float64(nil), prefix...)
		for j := shared; j < in; j++ {
			row[j] = draw(j)
		}
		if r%7 == 6 {
			copy(row, rows[r-1])
		}
		rows[r] = row
	}
	return rows
}

// TestPredictBatchBitIdentical holds the layer-major kernel to the
// row-at-a-time predictor it replaced: PredictBatchInto at every batch
// size 0–67 (every remainder of the four-row interleave, at every worker
// count's chunking) and Predict and PredictWithStd on every row, for
// three architectures and three ensemble sizes, with shared input
// prefixes of none, one, three and every feature, with duplicate rows,
// and with a last row that breaks the prefix the rest of its batch
// shares. It runs on the assembly kernel and on the portable block.
// Checked against a kernel whose four-row block adds its two last terms
// in swapped order, which it fails.
func TestPredictBatchBitIdentical(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		const in, maxRows = 8, 67
		rng := rand.New(rand.NewSource(27))
		var ow oracleWS
		for _, hidden := range [][]int{{5}, {14, 4}, {3, 3, 3}} {
			for _, members := range []int{1, 4, 14} {
				m := identityModel(rng, in, hidden, members)
				for _, shared := range []int{0, 1, 3, in} {
					rows := identityRows(rng, m, maxRows, shared)
					breaker := append([]float64(nil), rows[0]...)
					breaker[max(shared-1, 0)] += 0.5
					want := make([]float64, maxRows)
					for r, row := range append(rows, breaker) {
						p, err := oraclePredict(m, &ow, row)
						if err != nil {
							t.Fatal(err)
						}
						if r < maxRows {
							want[r] = p
						}
						mean, std, err := oraclePredictWithStd(m, &ow, row)
						if err != nil {
							t.Fatal(err)
						}
						got, err := m.Predict(row)
						if err != nil || math.Float64bits(got) != math.Float64bits(p) {
							t.Fatalf("hidden %v x%d shared %d row %d: Predict = %v (%v), oracle %v", hidden, members, shared, r, got, err, p)
						}
						gm, gs, err := m.PredictWithStd(row)
						if err != nil || math.Float64bits(gm) != math.Float64bits(mean) || math.Float64bits(gs) != math.Float64bits(std) {
							t.Fatalf("hidden %v x%d shared %d row %d: PredictWithStd = %v ± %v (%v), oracle %v ± %v", hidden, members, shared, r, gm, gs, err, mean, std)
						}
					}
					breakerWant, _ := oraclePredict(m, &ow, breaker)
					for _, workers := range []int{1, 2, 8} {
						m.Workers = workers
						for n := 0; n <= maxRows; n++ {
							batch := rows[:n]
							out := make([]float64, n)
							if err := m.PredictBatchInto(out, batch); err != nil {
								t.Fatal(err)
							}
							for r := range out {
								if math.Float64bits(out[r]) != math.Float64bits(want[r]) {
									t.Fatalf("hidden %v x%d shared %d workers %d n %d: row %d = %v, oracle %v", hidden, members, shared, workers, n, r, out[r], want[r])
								}
							}
							if n == 0 {
								continue
							}
							broken := append(append([][]float64(nil), rows[:n-1]...), breaker)
							if err := m.PredictBatchInto(out, broken); err != nil {
								t.Fatal(err)
							}
							for r := range out {
								w := want[r]
								if r == n-1 {
									w = breakerWant
								}
								if math.Float64bits(out[r]) != math.Float64bits(w) {
									t.Fatalf("hidden %v x%d shared %d workers %d n %d with a prefix breaker: row %d = %v, oracle %v", hidden, members, shared, workers, n, r, out[r], w)
								}
							}
						}
					}
				}
			}
		}
	})
}
