package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/nn"
)

func TestSurrogateSaveLoadRoundTrip(t *testing.T) {
	space := config.Cassandra()
	ds, err := Collect(analyticCollector(space), space, CollectOptions{
		Workloads: RRs(0, 0.5, 1),
		Configs:   8,
		Seed:      41,
	})
	if err != nil {
		t.Fatal(err)
	}
	sur, err := TrainSurrogate(ds, space, fastModelConfig())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "surrogate.json")
	if err := sur.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSurrogate(path, config.Cassandra())
	if err != nil {
		t.Fatal(err)
	}

	for _, rr := range []float64{0.1, 0.5, 0.9} {
		a, err := sur.Predict(RR(rr), config.Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Predict(RR(rr), config.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("prediction drifted: %v vs %v", a, b)
		}
	}

	// The reloaded surrogate must still drive the GA.
	rec, err := back.Optimize(RR(0.9), fastGAOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := config.Cassandra().Validate(rec.Config); err != nil {
		t.Errorf("recommendation invalid: %v", err)
	}
}

func TestLoadSurrogateValidation(t *testing.T) {
	space := config.Cassandra()
	ds, err := Collect(analyticCollector(space), space, CollectOptions{
		Workloads: RRs(0, 1),
		Configs:   6,
		Seed:      43,
	})
	if err != nil {
		t.Fatal(err)
	}
	sur, err := TrainSurrogate(ds, space, fastModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "surrogate.json")
	if err := sur.Save(path); err != nil {
		t.Fatal(err)
	}

	// Wrong datastore.
	if _, err := LoadSurrogate(path, config.ScyllaDB()); err == nil {
		t.Error("loading a cassandra surrogate into scylladb should error")
	}
	// Mismatched key layout.
	mutated := config.Cassandra()
	mutated.KeyNames = mutated.KeyNames[:4]
	if _, err := LoadSurrogate(path, mutated); err == nil {
		t.Error("mismatched key count should error")
	}
	reordered := config.Cassandra()
	reordered.KeyNames[0], reordered.KeyNames[1] = reordered.KeyNames[1], reordered.KeyNames[0]
	if _, err := LoadSurrogate(path, reordered); err == nil {
		t.Error("reordered key names should error")
	}
	// Missing file.
	if _, err := LoadSurrogate(filepath.Join(t.TempDir(), "nope.json"), space); err == nil {
		t.Error("missing file should error")
	}
}

func TestTunerUseSurrogate(t *testing.T) {
	space := config.Cassandra()
	ds, err := Collect(analyticCollector(space), space, CollectOptions{
		Workloads: RRs(0, 1),
		Configs:   6,
		Seed:      45,
	})
	if err != nil {
		t.Fatal(err)
	}
	sur, err := TrainSurrogate(ds, space, fastModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner(analyticCollector(space), config.Cassandra(), TunerOptions{
		SkipIdentify: true,
		GA:           fastGAOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.UseSurrogate(sur); err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Recommend(RR(0.5)); err != nil {
		t.Errorf("Recommend after UseSurrogate: %v", err)
	}
	if err := tuner.UseSurrogate(nil); err == nil {
		t.Error("nil surrogate should error")
	}
	// The same model claiming the scan axis is one input short of it.
	if err := tuner.UseSurrogate(&Surrogate{Model: sur.Model, Space: space, Scans: true}); err == nil {
		t.Error("a width mismatch should be rejected")
	}
	scyllaTuner, err := NewTuner(analyticCollector(space), config.ScyllaDB(), TunerOptions{SkipIdentify: true, GA: fastGAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if err := scyllaTuner.UseSurrogate(sur); err == nil {
		t.Error("cross-datastore surrogate should error")
	}
}

func TestLoadSurrogateRejectsCorruptFiles(t *testing.T) {
	space := config.Cassandra()
	ds, err := Collect(analyticCollector(space), space, CollectOptions{
		Workloads: RRs(0, 1),
		Configs:   6,
		Seed:      47,
	})
	if err != nil {
		t.Fatal(err)
	}
	sur, err := TrainSurrogate(ds, space, fastModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "surrogate.json")
	if err := sur.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated file: a partial write or interrupted download.
	trunc := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(trunc, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSurrogate(trunc, config.Cassandra()); err == nil {
		t.Error("truncated surrogate file should be rejected")
	}

	// NaN-poisoned weights: replace the first serialized weight value
	// with a NaN token.
	text := string(blob)
	idx := strings.Index(text, `"weights"`)
	if idx < 0 {
		t.Fatal("no weights array in saved surrogate")
	}
	start := idx + strings.Index(text[idx:], "[") + 1
	end := start + strings.IndexAny(text[start:], ",]")
	poisoned := filepath.Join(dir, "poisoned.json")
	if err := os.WriteFile(poisoned, []byte(text[:start]+"NaN"+text[end:]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSurrogate(poisoned, config.Cassandra()); err == nil {
		t.Error("NaN-poisoned surrogate file should be rejected")
	}

	// Feature-width mismatch with a matching key-name list: a surrogate
	// trained with scans on a narrower space whose file claims the full
	// key set. Its width, 2 + 4, is that of a 5-key RR-only model, so
	// only the recorded scan axis tells the two apart.
	narrow := config.Cassandra()
	narrow.KeyNames = narrow.KeyNames[:4]
	dsN, err := Collect(analyticCollector(narrow), narrow, CollectOptions{
		Workloads: []Workload{RR(0), {ReadRatio: 1, ScanRatio: 0.2}},
		Configs:   6,
		Seed:      48,
	})
	if err != nil {
		t.Fatal(err)
	}
	surN, err := TrainSurrogate(dsN, narrow, fastModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !surN.Scans || surN.Model.InputWidth() != 1+len(config.Cassandra().KeyNames) {
		t.Fatalf("narrow scan-trained surrogate: scans %v, width %d", surN.Scans, surN.Model.InputWidth())
	}
	narrowPath := filepath.Join(dir, "narrow.json")
	if err := surN.Save(narrowPath); err != nil {
		t.Fatal(err)
	}
	var sf map[string]json.RawMessage
	narrowBlob, err := os.ReadFile(narrowPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(narrowBlob, &sf); err != nil {
		t.Fatal(err)
	}
	full, err := json.Marshal(config.Cassandra().KeyNames)
	if err != nil {
		t.Fatal(err)
	}
	sf["keyNames"] = full
	forged, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	forgedPath := filepath.Join(dir, "forged.json")
	if err := os.WriteFile(forgedPath, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSurrogate(forgedPath, config.Cassandra()); err == nil {
		t.Error("feature-width mismatch should be rejected despite matching key names")
	}

	// A file saved before the scan axis was recorded: no "scans" field
	// and a model fed [RR, ScanRatio, Skew] ahead of the key parameters.
	xs, ys, err := ds.Features(space)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		xs[i] = append([]float64{x[0], 0, 0}, x[1:]...)
	}
	wide, err := nn.Fit(xs, ys, fastModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	widePath := filepath.Join(dir, "wide.json")
	if err := (&Surrogate{Model: wide, Space: space}).Save(widePath); err != nil {
		t.Fatal(err)
	}
	wideBlob, err := os.ReadFile(widePath)
	if err != nil {
		t.Fatal(err)
	}
	sf = nil
	if err := json.Unmarshal(wideBlob, &sf); err != nil {
		t.Fatal(err)
	}
	delete(sf, "scans")
	if wideBlob, err = json.Marshal(sf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(widePath, wideBlob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSurrogate(widePath, config.Cassandra()); err == nil {
		t.Error("an 8-wide surrogate from before the scan axis was recorded should be rejected")
	}
}

// TestRROnlySurrogateRejectsScans: a surrogate trained without scans has
// no input for the scan ratio, so every query that carries one is an
// error rather than an extrapolation; a scan-trained surrogate answers.
func TestRROnlySurrogateRejectsScans(t *testing.T) {
	space := config.Cassandra()
	train := func(workloads []Workload) *Surrogate {
		ds, err := Collect(analyticCollector(space), space, CollectOptions{Workloads: workloads, Configs: 6, Seed: 50})
		if err != nil {
			t.Fatal(err)
		}
		sur, err := TrainSurrogate(ds, space, fastModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sur
	}
	w := Workload{ReadRatio: 0.5, ScanRatio: 0.1}
	rrOnly := train(RRs(0, 1))
	if _, err := rrOnly.Predict(w, config.Config{}); err == nil {
		t.Error("Predict with scans on an RR-only surrogate should error")
	}
	if _, _, err := rrOnly.PredictWithStd(w, config.Config{}); err == nil {
		t.Error("PredictWithStd with scans on an RR-only surrogate should error")
	}
	if _, err := rrOnly.Problem(w); err == nil {
		t.Error("Problem with scans on an RR-only surrogate should error")
	}
	scans := train([]Workload{RR(0), {ReadRatio: 1, ScanRatio: 0.2}})
	if _, err := scans.Predict(w, config.Config{}); err != nil {
		t.Errorf("Predict with scans on a scan-trained surrogate: %v", err)
	}
	if _, err := scans.Predict(RR(0.5), config.Config{}); err != nil {
		t.Errorf("Predict without scans on a scan-trained surrogate: %v", err)
	}
}
