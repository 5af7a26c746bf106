package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// testLedger mixes the integer kinds a real ledger uses with fields
// Export must skip.
type testLedger struct {
	Ops     uint64 `obs:"test.ops"`
	Retries int    `obs:"test.retries"`
	Small   uint8  `obs:"test.small"`
	Idle    uint64 `obs:"test.idle"`
	Private uint64
	Seconds float64
	Series  []float64
}

func TestExportSumsLedgers(t *testing.T) {
	r := NewRegistry()
	a, b := &testLedger{Ops: 3, Retries: 1, Small: 200, Private: 99}, &testLedger{Ops: 4, Small: 100}
	r.Export(a)
	r.Export(b)
	r.Counter("test.ops").Add(10) // an interned counter of the same name joins the sum
	a.Ops += 5                    // the registry reads the ledger, it holds no copy
	got := r.Snapshot().Counters
	want := map[string]uint64{"test.ops": 22, "test.retries": 1, "test.small": 300, "test.idle": 0}
	if len(got) != len(want) {
		t.Errorf("snapshot counters %v, want %v", got, want)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %d (present %v), want %d", name, g, ok, w)
		}
	}
}

// TestExportAcrossStagesAcrossWorkers: every task of a parallel stage
// exports its own ledger through its Stage child and bumps it without
// synchronisation; after the ordered merge the snapshot is the same
// bytes at any worker count. Run under -race by `make race`.
func TestExportAcrossStagesAcrossWorkers(t *testing.T) {
	const tasks = 24
	run := func(workers int) []byte {
		root := NewRegistry()
		stages := make([]*Registry, tasks)
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range stages {
			stages[i] = root.Stage()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				l := new(testLedger)
				stages[i].Export(l)
				for n := 0; n <= i; n++ {
					l.Ops++
					l.Retries += 2
				}
				stages[i].Stage().Export(&testLedger{Ops: 1}) // a stage of a stage forwards too
				<-sem
			}(i)
		}
		wg.Wait()
		for _, s := range stages {
			root.Merge(s)
		}
		snap := root.Snapshot()
		if got, want := snap.Counters["test.ops"], uint64(tasks*(tasks+1)/2+tasks); got != want {
			t.Errorf("workers=%d: test.ops = %d, want %d", workers, got, want)
		}
		blob, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !bytes.Equal(ref, got) {
			t.Errorf("workers=%d snapshot differs from serial:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}

func TestExportNilRegistryAndReset(t *testing.T) {
	var disabled *Registry
	disabled.Export(&testLedger{Ops: 1})
	disabled.Export(42) // not even validated: the disabled state is inert
	if len(disabled.Snapshot().Counters) != 0 {
		t.Error("nil registry exported a ledger")
	}

	r := NewRegistry()
	r.Export(&testLedger{Ops: 1})
	r.Reset()
	if got := r.Snapshot().Counters; len(got) != 0 {
		t.Errorf("Reset kept exported counters: %v", got)
	}
	r.Export(&testLedger{Ops: 2})
	if got := r.Snapshot().Counters["test.ops"]; got != 2 {
		t.Errorf("test.ops = %d after Reset and a new export, want 2", got)
	}
}

func TestExportRejectsMalformedLedgers(t *testing.T) {
	var nilLedger *testLedger
	for name, ledger := range map[string]any{
		"not a pointer": testLedger{},
		"nil pointer":   nilLedger,
		"not a struct":  new(int),
		"tagged float": &struct {
			X float64 `obs:"test.x"`
		}{},
		"tagged bool": &struct {
			X bool `obs:"test.x"`
		}{},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(r.(string), "obs: ") {
					t.Errorf("%s: Export did not panic with an obs message: %v", name, r)
				}
			}()
			NewRegistry().Export(ledger)
		}()
	}
}
