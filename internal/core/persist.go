package core

import (
	"encoding/json"
	"fmt"
	"os"

	"rafiki/internal/config"
	"rafiki/internal/nn"
)

// surrogateFile is the on-disk format of a trained surrogate. The
// offline pipeline costs hours of benchmarking; persisting its output
// lets the online stage start instantly on the next run.
type surrogateFile struct {
	Datastore string          `json:"datastore"`
	KeyNames  []string        `json:"keyNames"`
	Scans     bool            `json:"scans"`
	Model     json.RawMessage `json:"model"`
}

// Save writes the surrogate to path as JSON.
func (s *Surrogate) Save(path string) error {
	modelBlob, err := json.Marshal(s.Model)
	if err != nil {
		return fmt.Errorf("core: encoding surrogate model: %w", err)
	}
	blob, err := json.MarshalIndent(surrogateFile{
		Datastore: s.Space.Name,
		KeyNames:  s.Space.KeyNames,
		Scans:     s.Scans,
		Model:     modelBlob,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding surrogate: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("core: writing surrogate: %w", err)
	}
	return nil
}

// LoadSurrogate reads a surrogate saved by Save and binds it to space,
// validating that the datastore, key-parameter layout and feature
// encoding match (see checkFits).
func LoadSurrogate(path string, space *config.Space) (*Surrogate, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading surrogate: %w", err)
	}
	var sf surrogateFile
	if err := json.Unmarshal(blob, &sf); err != nil {
		return nil, fmt.Errorf("core: decoding surrogate: %w", err)
	}
	var model nn.Model
	if err := json.Unmarshal(sf.Model, &model); err != nil {
		return nil, fmt.Errorf("core: decoding surrogate model: %w", err)
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("core: surrogate model failed validation: %w", err)
	}
	// The recorded workload axes, not the width alone, decide the
	// encoding: a 4-key scan-trained model and a 5-key RR-only one are
	// equally wide. A file saved before the axes were recorded loads as
	// RR-only, and its 3 workload inputs then fail the width check.
	saved := &Surrogate{Model: &model, Space: &config.Space{Name: sf.Datastore, KeyNames: sf.KeyNames}, Scans: sf.Scans}
	if err := saved.checkFits(space); err != nil {
		return nil, err
	}
	return &Surrogate{Model: &model, Space: space, Scans: sf.Scans}, nil
}
