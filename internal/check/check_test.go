package check

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ops shorthand: a completed op with a closed interval.
func rd(client int, key uint64, val int64, start, end float64) Op {
	return Op{Client: client, Key: key, Kind: OpRead, Value: val, Start: start, End: end, Ok: true}
}

func wr(client int, key uint64, val int64, start, end float64) Op {
	return Op{Client: client, Key: key, Kind: OpWrite, Value: val, Start: start, End: end, Ok: true}
}

func TestReadYourWrites(t *testing.T) {
	ok := History{
		wr(0, 1, 1, 0, 1),
		rd(0, 1, 1, 2, 3),
		rd(1, 1, 0, 2, 3), // other client never wrote; 0 is fine
	}
	if v := CheckReadYourWrites(ok); len(v) != 0 {
		t.Errorf("clean history flagged: %v", v)
	}
	bad := History{
		wr(0, 1, 1, 0, 1),
		rd(0, 1, 0, 2, 3), // own completed write invisible
	}
	v := CheckReadYourWrites(bad)
	if len(v) != 1 || v[0].Op != 1 || v[0].Check != "read-your-writes" {
		t.Errorf("violation not found: %v", v)
	}
	concurrent := History{
		wr(0, 1, 1, 0, 5),
		rd(0, 1, 0, 2, 3), // read overlaps the write: stale is allowed
	}
	if v := CheckReadYourWrites(concurrent); len(v) != 0 {
		t.Errorf("concurrent write flagged: %v", v)
	}
	unacked := History{
		{Client: 0, Key: 1, Kind: OpWrite, Value: 1, Start: 0, End: 1, Ok: false},
		rd(0, 1, 0, 2, 3), // unacked write need not be visible
	}
	if v := CheckReadYourWrites(unacked); len(v) != 0 {
		t.Errorf("unacked write flagged: %v", v)
	}
}

// oracleReadYourWrites is the literal double loop CheckReadYourWrites
// was before it became a sweep, kept verbatim as its reference.
func oracleReadYourWrites(h History) []Violation {
	var out []Violation
	for i, r := range h {
		if r.Kind != OpRead || !r.Ok {
			continue
		}
		want := int64(0)
		for _, w := range h {
			if w.Kind != OpWrite || !w.Ok || w.Client != r.Client || w.Key != r.Key {
				continue
			}
			if w.End <= r.Start && w.Value > want {
				want = w.Value
			}
		}
		if r.Value < want {
			out = append(out, Violation{
				Check:  "read-your-writes",
				Key:    r.Key,
				Op:     i,
				Detail: fmt.Sprintf("client %d read version %d after completing write of version %d", r.Client, r.Value, want),
			})
		}
	}
	return out
}

// TestReadYourWritesMatchesOracle: over random histories in arbitrary
// recording order — few clients and keys so sessions collide, times on
// a coarse grid so End == Start ties occur, negative versions, unacked
// ops, and NaN or infinite times — the sweep reports exactly the
// oracle's violations in the oracle's order.
func TestReadYourWritesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	found := 0
	for trial := 0; trial < 400; trial++ {
		h := make(History, rng.Intn(80))
		for i := range h {
			start := float64(rng.Intn(24)) / 4
			h[i] = Op{
				Client: rng.Intn(3),
				Key:    uint64(rng.Intn(3)),
				Kind:   OpKind(1 + rng.Intn(2)),
				Value:  int64(rng.Intn(12) - 2),
				Start:  start,
				End:    start + float64(rng.Intn(8))/4,
				Ok:     rng.Intn(5) != 0,
			}
			if trial%4 == 3 && rng.Intn(10) == 0 {
				h[i].Start = odd[rng.Intn(len(odd))]
			}
			if trial%4 == 3 && rng.Intn(10) == 0 {
				h[i].End = odd[rng.Intn(len(odd))]
			}
		}
		got, want := CheckReadYourWrites(h), oracleReadYourWrites(h)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: sweep found\n %v, oracle\n %v\nin %+v", trial, got, want, h)
		}
		found += len(want)
	}
	if found < 400 {
		t.Errorf("only %d violations over all trials: the comparison is nearly vacuous", found)
	}
}

func TestMonotonicReads(t *testing.T) {
	ok := History{
		rd(0, 1, 1, 0, 1),
		rd(0, 1, 1, 2, 3),
		rd(0, 1, 2, 4, 5),
		rd(1, 2, 9, 0, 1), // different key, different client
	}
	if v := CheckMonotonicReads(ok); len(v) != 0 {
		t.Errorf("clean history flagged: %v", v)
	}
	bad := History{
		rd(0, 1, 2, 0, 1),
		rd(0, 1, 1, 2, 3), // regression
		rd(1, 1, 1, 2, 3), // other session: its own first read, fine
	}
	v := CheckMonotonicReads(bad)
	if len(v) != 1 || v[0].Op != 1 || v[0].Check != "monotonic-reads" {
		t.Errorf("violation not found: %v", v)
	}
}

func TestLinearizableSerialHistory(t *testing.T) {
	h := History{
		wr(0, 1, 1, 0, 1),
		rd(1, 1, 1, 2, 3),
		wr(0, 1, 2, 4, 5),
		rd(1, 1, 2, 6, 7),
	}
	v, und := CheckLinearizable(h, DefaultOptions())
	if len(v) != 0 || len(und) != 0 {
		t.Errorf("serial history rejected: violations=%v undecided=%v", v, und)
	}
}

func TestLinearizableConcurrentReads(t *testing.T) {
	// A write concurrent with two reads: one sees the old value, one
	// the new — linearizable (read-old before write, read-new after).
	h := History{
		wr(0, 1, 1, 0, 10),
		rd(1, 1, 0, 2, 4),
		rd(2, 1, 1, 3, 5),
	}
	v, und := CheckLinearizable(h, DefaultOptions())
	if len(v) != 0 || len(und) != 0 {
		t.Errorf("concurrent history rejected: violations=%v undecided=%v", v, und)
	}
}

func TestLinearizableStaleReadViolation(t *testing.T) {
	// The write completed before the read began, yet the read missed it.
	h := History{
		wr(0, 1, 1, 0, 1),
		rd(1, 1, 0, 2, 3),
	}
	v, _ := CheckLinearizable(h, DefaultOptions())
	if len(v) != 1 || v[0].Check != "linearizability" || v[0].Key != 1 {
		t.Fatalf("stale read not flagged: %v", v)
	}
}

func TestLinearizableNewOldInversion(t *testing.T) {
	// Two sequential reads observing new-then-old across a completed
	// write: no order works, even though each read alone would.
	h := History{
		wr(0, 1, 1, 0, 1),
		wr(0, 1, 2, 2, 3),
		rd(1, 1, 2, 4, 5),
		rd(1, 1, 1, 6, 7),
	}
	v, _ := CheckLinearizable(h, DefaultOptions())
	if len(v) == 0 {
		t.Fatal("new-old inversion not flagged")
	}
}

func TestLinearizableUnackedWriteMayOrMayNotApply(t *testing.T) {
	unacked := Op{Client: 0, Key: 1, Kind: OpWrite, Value: 1, Start: 0, End: 1, Ok: false}
	// Visible: the unacked write took effect.
	seen := History{unacked, rd(1, 1, 1, 2, 3)}
	if v, _ := CheckLinearizable(seen, DefaultOptions()); len(v) != 0 {
		t.Errorf("visible unacked write flagged: %v", v)
	}
	// Invisible: it never took effect.
	unseen := History{unacked, rd(1, 1, 0, 2, 3)}
	if v, _ := CheckLinearizable(unseen, DefaultOptions()); len(v) != 0 {
		t.Errorf("invisible unacked write flagged: %v", v)
	}
	// But it cannot be un-applied: observed then gone is a violation.
	flipflop := History{unacked, rd(1, 1, 1, 2, 3), rd(1, 1, 0, 4, 5)}
	if v, _ := CheckLinearizable(flipflop, DefaultOptions()); len(v) == 0 {
		t.Error("un-applied write not flagged")
	}
}

func TestLinearizableWindowTooLargeIsUndecided(t *testing.T) {
	// All ops overlap: one window of 3 ops against MaxWindowOps 2.
	h := History{
		wr(0, 1, 1, 0, 10),
		wr(1, 1, 2, 1, 11),
		rd(2, 1, 1, 2, 12),
	}
	v, und := CheckLinearizable(h, Options{MaxWindowOps: 2, MaxSearchSteps: 1 << 10})
	if len(v) != 0 {
		t.Errorf("undecidable history flagged as violation: %v", v)
	}
	if len(und) != 1 || und[0] != 1 {
		t.Errorf("undecided = %v, want [1]", und)
	}
}

func TestLinearizableCrossWindowChaining(t *testing.T) {
	// Window 1 ends ambiguously (unordered writes 1 and 2); window 2's
	// read pins which final value window 1 must have had.
	h := History{
		wr(0, 1, 1, 0, 10),
		wr(1, 1, 2, 0, 10),
		rd(2, 1, 1, 20, 21), // only final=1 survives
		rd(2, 1, 1, 22, 23),
	}
	if v, und := CheckLinearizable(h, DefaultOptions()); len(v) != 0 || len(und) != 0 {
		t.Errorf("chained history rejected: violations=%v undecided=%v", v, und)
	}
	// Contradictory pins across windows: read 2 then 1 serially.
	bad := History{
		wr(0, 1, 1, 0, 10),
		wr(1, 1, 2, 0, 10),
		rd(2, 1, 2, 20, 21),
		rd(2, 1, 1, 22, 23),
	}
	if v, _ := CheckLinearizable(bad, DefaultOptions()); len(v) == 0 {
		t.Error("contradictory cross-window reads not flagged")
	}
}

func TestCheckCombinesAllCheckers(t *testing.T) {
	h := History{
		wr(0, 1, 1, 0, 1),
		rd(0, 1, 0, 2, 3), // violates RYW and linearizability
	}
	rep := Check(h, DefaultOptions())
	if rep.Ops != 2 {
		t.Errorf("Ops = %d, want 2", rep.Ops)
	}
	checks := map[string]bool{}
	for _, v := range rep.Violations {
		checks[v.Check] = true
	}
	if !checks["read-your-writes"] || !checks["linearizability"] {
		t.Errorf("missing checks in %v", rep.Violations)
	}
}
