// Package check records per-key operation histories observed by
// clients of the simulated cluster and checks them against consistency
// models: the session guarantees read-your-writes and monotonic reads,
// and single-key register linearizability via a Wing–Gong style
// interval search (the algorithm behind porcupine). A chaos harness
// (chaos.go) explores seeded fault+network schedules, runs the
// checkers over the observed histories, and shrinks any failing
// schedule to a minimal reproducer.
//
// Values are the coordinator-issued write versions: globally
// monotonic, unique per mutation, with 0 meaning "never written". That
// makes register semantics trivial — a read observes exactly the
// version of the write that produced the state it saw.
package check

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// OpKind distinguishes history operations.
type OpKind int

// Supported operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one client-observed operation on one key. Start and End bound
// the operation's real-time interval in virtual seconds: the true
// effect point lies somewhere inside it, which is all interval-based
// linearizability needs.
type Op struct {
	// Client identifies the logical session the op belongs to.
	Client int
	// Key is the key operated on.
	Key uint64
	// Kind is read or write.
	Kind OpKind
	// Value is the version written (writes) or observed (reads).
	Value int64
	// Start and End are the invocation and response times.
	Start, End float64
	// Ok reports the op met its consistency level: an !Ok write may or
	// may not have taken effect (it is optional to the linearizability
	// search); an !Ok read observed nothing and constrains nothing.
	Ok bool
}

// History is a sequence of observed operations in recording order.
type History []Op

// Violation is one consistency-model breach found in a history.
type Violation struct {
	// Check names the violated model.
	Check string
	// Key is the key the violation was observed on.
	Key uint64
	// Op indexes the offending operation in the history.
	Op int
	// Detail is a human-readable explanation.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: key %d op %d: %s", v.Check, v.Key, v.Op, v.Detail)
}

// session is one client's view of one key, the scope of both session
// guarantees.
type session struct {
	client int
	key    uint64
}

// CheckReadYourWrites verifies each session observes its own completed
// writes: a successful read must return a version at least as new as
// the newest acknowledged write the same client completed on that key
// before the read began. One sweep over time: acknowledged writes in
// End order raise their session's high-water mark, and each read, in
// Start order, is held to the mark as it stands when the read begins.
func CheckReadYourWrites(h History) []Violation {
	var writes, reads []int
	for i, op := range h {
		switch {
		case !op.Ok:
		case op.Kind == OpWrite && !math.IsNaN(op.End): // a NaN End precedes no read
			writes = append(writes, i)
		case op.Kind == OpRead:
			reads = append(reads, i)
		}
	}
	slices.SortFunc(writes, func(a, b int) int { return cmp.Compare(h[a].End, h[b].End) })
	// cmp.Compare puts NaN Starts first, before any write has counted:
	// nothing completed before such a read began.
	slices.SortFunc(reads, func(a, b int) int { return cmp.Compare(h[a].Start, h[b].Start) })
	newest := make(map[session]int64)
	want := make([]int64, len(h))
	next := 0
	for _, i := range reads {
		for ; next < len(writes) && h[writes[next]].End <= h[i].Start; next++ {
			w := h[writes[next]]
			if s := (session{w.Client, w.Key}); w.Value > newest[s] {
				newest[s] = w.Value
			}
		}
		want[i] = newest[session{h[i].Client, h[i].Key}]
	}
	var out []Violation
	for i, r := range h {
		if r.Kind == OpRead && r.Ok && r.Value < want[i] {
			out = append(out, Violation{
				Check:  "read-your-writes",
				Key:    r.Key,
				Op:     i,
				Detail: fmt.Sprintf("client %d read version %d after completing write of version %d", r.Client, r.Value, want[i]),
			})
		}
	}
	return out
}

// CheckMonotonicReads verifies each session's successive reads of a
// key never observe an older version than an earlier read did.
func CheckMonotonicReads(h History) []Violation {
	var out []Violation
	seen := make(map[session]int64)
	for i, r := range h {
		if r.Kind != OpRead || !r.Ok {
			continue
		}
		s := session{r.Client, r.Key}
		if prev, ok := seen[s]; ok && r.Value < prev {
			out = append(out, Violation{
				Check:  "monotonic-reads",
				Key:    r.Key,
				Op:     i,
				Detail: fmt.Sprintf("client %d read version %d after reading version %d", r.Client, r.Value, prev),
			})
			continue // keep the high-water mark; report each regression once
		}
		if r.Value > seen[s] {
			seen[s] = r.Value
		}
	}
	return out
}

// Options bound the linearizability search.
type Options struct {
	// MaxWindowOps caps the ops per concurrent window the search will
	// attempt; a larger window is reported undecided rather than
	// searched (the state space is 2^n).
	MaxWindowOps int
	// MaxSearchSteps caps total explored states per key.
	MaxSearchSteps int
}

// DefaultOptions returns the standard search bounds.
func DefaultOptions() Options {
	return Options{MaxWindowOps: 64, MaxSearchSteps: 1 << 20}
}

// Report is the combined outcome of all checkers over one history.
type Report struct {
	// Ops is the history length.
	Ops int
	// Violations lists every breach found, session checks first.
	Violations []Violation
	// Undecided lists keys whose linearizability search exceeded its
	// bounds (neither proven nor refuted).
	Undecided []uint64
}

// Check runs every checker over the history.
func Check(h History, opts Options) Report {
	rep := Report{Ops: len(h)}
	rep.Violations = append(rep.Violations, CheckReadYourWrites(h)...)
	rep.Violations = append(rep.Violations, CheckMonotonicReads(h)...)
	lin, undecided := CheckLinearizable(h, opts)
	rep.Violations = append(rep.Violations, lin...)
	rep.Undecided = undecided
	return rep
}

// keysOf returns the distinct keys of h's checkable ops in ascending
// order, so per-key iteration is deterministic.
func keysOf(h History) []uint64 {
	set := make(map[uint64]bool)
	for _, op := range h {
		set[op.Key] = true
	}
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// infEnd returns the op's effective interval end for the search:
// an unacknowledged write may take effect arbitrarily late.
func infEnd(op Op) float64 {
	if op.Kind == OpWrite && !op.Ok {
		return math.Inf(1)
	}
	return op.End
}
