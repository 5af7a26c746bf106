package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/obs"
	"rafiki/internal/par"
)

// obsProbeCollector wraps the analytic collector with per-sample
// telemetry, exercising the ObsCollector stage path in Collect.
type obsProbeCollector struct {
	inner Collector
}

func (c obsProbeCollector) Sample(w Workload, cfg config.Config, seed int64) (float64, error) {
	return c.SampleObs(w, cfg, seed, nil)
}

func (c obsProbeCollector) SampleObs(w Workload, cfg config.Config, seed int64, reg *obs.Registry) (float64, error) {
	tput, err := c.inner.Sample(w, cfg, seed)
	reg.Counter("probe.samples").Inc()
	reg.Gauge("probe.last_seed").Set(float64(seed))
	reg.Record(obs.Span{Name: "probe.sample", Start: w.ReadRatio, End: w.ReadRatio + 1, Unit: "rr", Attrs: map[string]float64{"tput": tput}})
	return tput, err
}

// TestCollectDeterministicAcrossWorkers: same options must produce the
// same dataset (including the drop schedule) and a byte-identical obs
// snapshot whether samples run serially or on four workers. The only
// intentional difference — the par.collect.workers occupancy gauge — is
// excluded, since it reports the configured worker count by design.
func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	space := config.Cassandra()
	run := func(workers int) (Dataset, []byte) {
		reg := obs.NewRegistry()
		ds, err := Collect(obsProbeCollector{inner: analyticCollector(space)}, space, CollectOptions{
			Workloads: RRs(0, 0.3, 0.7, 1),
			Configs:   6,
			Seed:      11,
			DropRate:  0.15,
			Workers:   workers,
			Obs:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		delete(snap.Gauges, "par.collect.workers")
		blob, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return ds, blob
	}
	refDS, refSnap := run(1)
	if refDS.Dropped == 0 || len(refDS.Samples) == 0 {
		t.Fatalf("test wants both kept and dropped samples, got %d/%d", len(refDS.Samples), refDS.Dropped)
	}
	for _, workers := range []int{2, 4} {
		gotDS, gotSnap := run(workers)
		if !reflect.DeepEqual(refDS, gotDS) {
			t.Errorf("workers=%d: dataset differs from serial run", workers)
		}
		if !bytes.Equal(refSnap, gotSnap) {
			t.Errorf("workers=%d: obs snapshot differs from serial run:\n%s\nvs\n%s", workers, gotSnap, refSnap)
		}
	}
}

// TestCollectErrorDeterministicAcrossWorkers: when several samples
// fail, the reported error must be the one the serial loop would have
// hit first, for any worker count.
func TestCollectErrorDeterministicAcrossWorkers(t *testing.T) {
	space := config.Cassandra()
	boom := errors.New("generator crashed")
	failing := CollectorFunc(func(w Workload, cfg config.Config, seed int64) (float64, error) {
		if seed%3 == 0 {
			return 0, boom
		}
		return 1, nil
	})
	var refMsg string
	for _, workers := range []int{1, 2, 4} {
		_, err := Collect(failing, space, CollectOptions{
			Workloads: RRs(0, 0.5, 1),
			Configs:   5,
			Seed:      21,
			Workers:   workers,
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped %v", workers, err, boom)
		}
		if workers == 1 {
			refMsg = err.Error()
		} else if err.Error() != refMsg {
			t.Errorf("workers=%d: error %q, serial %q", workers, err.Error(), refMsg)
		}
	}
}

// TestIdentifyDeterministicAcrossWorkers: the sweep's task list and
// seeds are fixed before fan-out and each sample's telemetry is staged,
// so the Identification — ranking and key names — and the registry's
// snapshot are the same on one, two and eight workers.
func TestIdentifyDeterministicAcrossWorkers(t *testing.T) {
	space := config.Cassandra()
	opts := IdentifyOptions{ReadRatio: 0.5, MinK: 3, MaxK: 8, Repeats: 2, Seed: 5}
	run := func(workers int) (Identification, []byte) {
		reg := obs.NewRegistry()
		id, err := identifyKeyParameters(obsProbeCollector{inner: analyticCollector(space)}, space, opts,
			par.Options{Workers: workers, Name: "identify", Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		delete(snap.Gauges, "par.identify.workers")
		blob, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return id, blob
	}
	ref, refSnap := run(1)
	if len(ref.KeyNames) == 0 || len(ref.Ranking.Entries) == 0 {
		t.Fatalf("empty identification: %+v", ref)
	}
	if !bytes.Contains(refSnap, []byte("probe.sample")) {
		t.Fatalf("identify staged no sample telemetry:\n%s", refSnap)
	}
	for _, workers := range []int{2, 8} {
		got, gotSnap := run(workers)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: identification differs from serial run:\n%+v\nvs\n%+v", workers, got, ref)
		}
		if !bytes.Equal(refSnap, gotSnap) {
			t.Errorf("workers=%d: obs snapshot differs from serial run", workers)
		}
	}
}

// TestIdentifyErrorDeterministicAcrossWorkers: when several sweep
// samples fail, the reported error is the lowest-numbered one — the one
// a serial sweep hits first — for any worker count.
func TestIdentifyErrorDeterministicAcrossWorkers(t *testing.T) {
	space := config.Cassandra()
	boom := errors.New("generator crashed")
	failing := CollectorFunc(func(w Workload, cfg config.Config, seed int64) (float64, error) {
		if seed%5 == 0 {
			return 0, fmt.Errorf("seed %d: %w", seed, boom)
		}
		return 1, nil
	})
	opts := DefaultIdentifyOptions()
	opts.Seed = 21 // samples are numbered from 22: the first to fail is 25
	const want = "seed 25:"
	for _, workers := range []int{1, 2, 8} {
		_, err := identifyKeyParameters(failing, space, opts, par.Options{Workers: workers})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped %v", workers, err, boom)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("workers=%d: error %q does not carry the first failing sample (%s)", workers, err, want)
		}
	}
}
