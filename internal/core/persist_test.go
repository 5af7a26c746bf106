package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rafiki/internal/config"
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
	// trained on a narrower space whose file claims the full key set.
	narrow := config.Cassandra()
	narrow.KeyNames = narrow.KeyNames[:4]
	dsN, err := Collect(analyticCollector(narrow), narrow, CollectOptions{
		Workloads: RRs(0, 1),
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
}
