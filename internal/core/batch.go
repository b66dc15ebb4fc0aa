package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// Batch is a named set of experiment configurations, loadable from JSON.
// It lets a study be described declaratively and run with cmd/batch:
//
//	{
//	  "name": "vc-study",
//	  "configs": [
//	    {"Network": "tree", "Algorithm": "adaptive", "VCs": 1, "Pattern": "uniform", "Load": 0.5},
//	    {"Network": "tree", "Algorithm": "adaptive", "VCs": 4, "Pattern": "uniform", "Load": 0.5}
//	  ]
//	}
//
// Unset fields take the paper's defaults, exactly as in the Go API.
type Batch struct {
	Name    string   `json:"name"`
	Configs []Config `json:"configs"`
}

// DecodeBatch reads a Batch from JSON, rejecting unknown fields so typos
// in config files fail loudly, and validates that every configuration
// assembles.
func DecodeBatch(r io.Reader) (Batch, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var b Batch
	if err := dec.Decode(&b); err != nil {
		return Batch{}, fmt.Errorf("core: decoding batch: %w", err)
	}
	if len(b.Configs) == 0 {
		return Batch{}, fmt.Errorf("core: batch %q has no configurations", b.Name)
	}
	for i, cfg := range b.Configs {
		if _, err := NewSimulation(cfg); err != nil {
			return Batch{}, fmt.Errorf("core: batch %q config %d: %w", b.Name, i, err)
		}
	}
	return b, nil
}

// RunWith executes every configuration of the batch under observers,
// in parallel across workers, and returns results in config order. It
// is RunGrid with every run stamped with the batch name and its
// config's index.
func (b Batch) RunWith(workers int, opts Options) ([]Result, error) {
	runs := make([]GridRun, len(b.Configs))
	for i, cfg := range b.Configs {
		runs[i] = GridRun{Config: cfg, Batch: b.Name, Index: i}
	}
	return RunGrid(runs, workers, opts)
}

// EncodeBatch writes the batch as indented JSON (the inverse of
// DecodeBatch, used to scaffold config files).
func EncodeBatch(w io.Writer, b Batch) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
