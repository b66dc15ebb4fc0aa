package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"

	"smart/internal/metrics"
	"smart/internal/wormhole"
)

// referenceJSON holds the paper's quoted saturation points for the
// grid's cells and the pinned outputs the correctness gates compare
// against. Regenerate the pinned part with -write-pins after a change
// that is meant to alter simulated behaviour.
//
//go:embed reference.json
var referenceJSON []byte

// reference is the decoded reference.json.
type reference struct {
	// PaperSaturation is the saturation point the paper quotes, as a
	// fraction of capacity, by pattern and configuration label (the
	// same figures cmd/experiments' scorecard prints).
	PaperSaturation map[string]map[string]float64 `json:"paper_saturation"`
	// GridDigest is the obs.Digest of the paper-grid manifest run with
	// no store, by "<size>/<simulation seed>".
	GridDigest map[string]string `json:"grid_digest"`
	// LargeFabric is the sequential (1-shard) large-fabric outcome, by
	// "<size>/<simulation seed>".
	LargeFabric map[string]largePin `json:"large_fabric"`
}

// largePin is the pinned outcome of one large-fabric run.
type largePin struct {
	Counters wormhole.Counters `json:"counters"`
	Sample   metrics.Sample    `json:"sample"`
}

func pinKey(size string, seed uint64) string { return fmt.Sprintf("%s/%d", size, seed) }

func (r *reference) gridDigest(size string, seed uint64) string {
	return r.GridDigest[pinKey(size, seed)]
}

func (r *reference) largeFabric(size string, seed uint64) largePin {
	return r.LargeFabric[pinKey(size, seed)]
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("decoding reference.json: %w", err)
	}
	if r.GridDigest == nil {
		r.GridDigest = map[string]string{}
	}
	if r.LargeFabric == nil {
		r.LargeFabric = map[string]largePin{}
	}
	return &r, nil
}

// pinSeeds are workload seeds that map onto each pinned simulation seed
// once: 1 to 4, then the held-out seed's own.
var pinSeeds = []uint64{0, 1, 2, 3, heldOutSeed}

// writeReference recomputes the pins of one size — the grid with no
// store and the large fabric on one shard — and writes the whole
// reference, other sizes unchanged, to w.
func writeReference(w io.Writer, size string, r *reference) error {
	for _, seed := range pinSeeds {
		g, err := sweepGrid(gridSweeps(size, seed), nil, workers())
		if err != nil {
			return err
		}
		if g.failed > 0 {
			return fmt.Errorf("grid for seed %d: %d runs failed", seed, g.failed)
		}
		key := pinKey(size, simSeed(seed))
		r.GridDigest[key] = g.digest()
		pin, err := largeReference(size, seed)
		if err != nil {
			return err
		}
		r.LargeFabric[key] = pin
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
