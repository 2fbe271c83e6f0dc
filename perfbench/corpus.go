package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// searchCorpusJSON pins the search corpus: every instance's generator
// parameters and its optimal makespan, computed once offline by an exact
// engine run to completion (astar, or dfbb where astar exceeds the cap).
// The optimum is a property of the instance, so it holds for every correct
// engine and every future search algorithm; effort counters are not pinned.
//
//go:embed corpus.json
var searchCorpusJSON []byte

// searchCorpusSpec is the decoded corpus.json.
type searchCorpusSpec struct {
	// OutDeg is gen.RandomConfig.MeanOutDeg for every instance.
	OutDeg float64 `json:"out_deg"`
	// Cap is the per-solve expansion cap (engine.Config.MaxExpanded). It
	// bounds memory: an uncapped solve of a hard v=16, CCR 10 instance
	// grows OPEN past ten million states.
	Cap       int64         `json:"cap"`
	Instances []pinnedEntry `json:"instances"`
}

type pinnedEntry struct {
	V       int     `json:"v"`
	CCR     float64 `json:"ccr"`
	Seed    uint64  `json:"seed"`
	Procs   string  `json:"procs"`
	Optimal int32   `json:"optimal"`
}

// instance is one generated corpus member.
type instance struct {
	Name    string
	G       *taskgraph.Graph
	Sys     *procgraph.System
	Optimal int32 // pinned optimum; 0 when unknown
}

func loadCorpusSpec() (searchCorpusSpec, error) {
	var spec searchCorpusSpec
	if err := json.Unmarshal(searchCorpusJSON, &spec); err != nil {
		return spec, fmt.Errorf("decoding corpus.json: %w", err)
	}
	return spec, nil
}

// buildSearchCorpus generates every pinned instance, ordered by a
// permutation drawn from seed. The instance set is fixed so that each run
// does the same work and every makespan can be checked against its pin;
// the seed decides the order the closed-loop caller visits them in.
func buildSearchCorpus(spec searchCorpusSpec, seed uint64, limit int) ([]instance, error) {
	entries := spec.Instances
	if limit > 0 && limit < len(entries) {
		entries = entries[:limit]
	}
	out := make([]instance, 0, len(entries))
	for _, e := range entries {
		g, err := gen.Random(gen.RandomConfig{V: e.V, CCR: e.CCR, Seed: e.Seed, MeanOutDeg: spec.OutDeg})
		if err != nil {
			return nil, err
		}
		sys, err := procgraph.ParseSpec(e.Procs, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, instance{
			Name:    fmt.Sprintf("v%d-ccr%g-s%d-%s", e.V, e.CCR, e.Seed, e.Procs),
			G:       g,
			Sys:     sys,
			Optimal: e.Optimal,
		})
	}
	rng := rand.New(rand.NewPCG(seed, 0x5EED))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}
