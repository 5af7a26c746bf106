package check

import (
	"slices"
	"testing"
)

// decodeHistory turns raw fuzz bytes into an arbitrary history: 6
// bytes per op, intervals and values unconstrained, so the checkers
// face overlapping, contradictory, and degenerate shapes.
func decodeHistory(data []byte) History {
	var h History
	for i := 0; i+6 <= len(data) && len(h) < 64; i += 6 {
		kind := OpRead
		if data[i]&1 == 1 {
			kind = OpWrite
		}
		start := float64(data[i+3]) / 8
		h = append(h, Op{
			Client: int(data[i] >> 4),
			Key:    uint64(data[i+1] % 4),
			Kind:   kind,
			Value:  int64(data[i+2] % 16),
			Start:  start,
			End:    start + float64(data[i+4])/16,
			Ok:     data[i+5]&1 == 0,
		})
	}
	return h
}

// serialHistory executes the same bytes through a serial register
// machine: ops run one at a time with disjoint intervals, reads return
// exactly the last written version. Such a history is linearizable by
// construction and satisfies every session guarantee.
func serialHistory(data []byte) History {
	reg := make(map[uint64]int64)
	var h History
	ver := int64(0)
	t := 0.0
	for i := 0; i+3 <= len(data) && len(h) < 64; i += 3 {
		client := int(data[i] >> 4)
		key := uint64(data[i+1] % 4)
		if data[i]&1 == 1 {
			ver++
			reg[key] = ver
			h = append(h, Op{Client: client, Key: key, Kind: OpWrite,
				Value: ver, Start: t, End: t + 1, Ok: true})
		} else {
			h = append(h, Op{Client: client, Key: key, Kind: OpRead,
				Value: reg[key], Start: t, End: t + 1, Ok: true})
		}
		t += 2 // a gap between ops: genuine quiescence
	}
	return h
}

func FuzzHistoryCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x03, 0x10, 0x08, 0x00})
	f.Add([]byte{0x11, 0x01, 0x05, 0x00, 0xff, 0x01, 0x20, 0x02, 0x05, 0x10, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary histories: the checker may find violations or give
		// up within its bounds, but must never panic.
		arb := decodeHistory(data)
		Check(arb, Options{MaxWindowOps: 16, MaxSearchSteps: 1 << 14})
		if got, want := CheckReadYourWrites(arb), oracleReadYourWrites(arb); !slices.Equal(got, want) {
			t.Fatalf("read-your-writes sweep found %v, the double loop %v", got, want)
		}

		// Serial-executor histories: must always be accepted, and the
		// windows are singletons so the search must always decide.
		ser := serialHistory(data)
		rep := Check(ser, DefaultOptions())
		if len(rep.Violations) != 0 {
			t.Fatalf("serial history rejected: %v", rep.Violations)
		}
		if len(rep.Undecided) != 0 {
			t.Fatalf("serial history undecided on keys %v", rep.Undecided)
		}
	})
}
