package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"sbgp"
)

// The workloads' job specs. The program under test receives only these
// generated specs; every topology seed in them is drawn from the
// benchmark's --seed.

// paperGridSpec is the job a bgpsim -job user gets with the defaults,
// on the paper's deployment axis: Fig 7a's Tier-1+2 rollout (13 Tier 1s
// plus 13, 37 and 100 Tier 2s, each with their stubs), then t1t2cp
// (Fig 8), t2 (Fig 11) and nonstubs (Fig 12). All three models, default
// pair sampling (24 × 32), default shard size, one-hop attack.
func paperGridSpec(c *config, topoSeed int64) *sbgp.JobSpec {
	spec := &sbgp.JobSpec{
		Version:  sbgp.JobSpecVersion,
		Name:     "paper-grid",
		Topology: sbgp.TopologySpec{N: c.size(4000, 400), Seed: topoSeed},
		Workers:  c.workers,
	}
	for _, y := range []int{13, 37, 100} {
		spec.Deployments = append(spec.Deployments, sbgp.JobDeployment{
			Name: fmt.Sprintf("t1x13-t2x%d", y),
			Spec: &sbgp.DeploymentSpec{NumTier1: 13, NumTier2: y, IncludeStubs: true},
		})
	}
	for _, named := range []string{"t1t2cp", "t2", "nonstubs"} {
		spec.Deployments = append(spec.Deployments, sbgp.JobDeployment{Named: named})
	}
	if c.tiny {
		spec.Pairs = sbgp.PairSpec{MaxM: 4, MaxD: 4}
	}
	return spec
}

// rolloutFineSpec is the shape of BenchmarkRolloutSeries as a job: the
// baseline plus 24 one-AS Tier 2 steps with their stubs, all three
// models, 8 × 8 pairs, shards of 256 cells.
func rolloutFineSpec(c *config, topoSeed int64) *sbgp.JobSpec {
	spec := &sbgp.JobSpec{
		Version:   sbgp.JobSpecVersion,
		Name:      "rollout-fine",
		Topology:  sbgp.TopologySpec{N: c.size(4000, 400), Seed: topoSeed},
		Pairs:     sbgp.PairSpec{MaxM: c.size(8, 4), MaxD: c.size(8, 4)},
		ShardSize: 256,
		Workers:   c.workers,
	}
	for k := 1; k <= 24; k++ {
		spec.Deployments = append(spec.Deployments, sbgp.JobDeployment{
			Name: fmt.Sprintf("t2x%d", k),
			Spec: &sbgp.DeploymentSpec{NumTier2: k, IncludeStubs: true},
		})
	}
	return spec
}

// daemonSpec is one job of the daemon streams: 1000 ASes, baseline,
// t1t2 and t2, 8 × 8 pairs, shards of 16 cells (36 shards).
func daemonSpec(c *config, topoSeed int64) *sbgp.JobSpec {
	return &sbgp.JobSpec{
		Version:  sbgp.JobSpecVersion,
		Name:     "daemon-job",
		Topology: sbgp.TopologySpec{N: c.size(1000, 300), Seed: topoSeed},
		Deployments: []sbgp.JobDeployment{
			{Named: "t1t2"},
			{Named: "t2"},
		},
		Pairs:     sbgp.PairSpec{MaxM: c.size(8, 4), MaxD: c.size(8, 4)},
		ShardSize: 16,
		Workers:   c.workers,
	}
}

// generate materializes a spec's topology the way the daemon's warm
// cache does.
func generate(spec *sbgp.JobSpec) (*sbgp.Graph, *sbgp.TopologyMeta, error) {
	return sbgp.GenerateTopology(sbgp.TopologyParams{N: spec.Topology.N, Seed: spec.Topology.Seed, SeedSet: true})
}

// simulate builds a spec's simulation on an already generated topology.
func simulate(spec *sbgp.JobSpec, g *sbgp.Graph, meta *sbgp.TopologyMeta) (*sbgp.Simulation, error) {
	sc, err := sbgp.FromJobSpecOnGraph(spec, g, meta)
	if err != nil {
		return nil, err
	}
	return sc.Simulate()
}

// references computes each distinct job's expected result bytes through
// a path that shares neither the sharded evaluator nor the incremental
// scheduler with the system under test: the same spec with incremental
// off and one worker, its topology generated afresh by FromJobSpec, and
// the grid evaluated by the flat Simulation.Sweep over JobPairs.
type references struct {
	mu   sync.Mutex
	byID map[string][]byte
}

func newReferences() *references { return &references{byID: map[string][]byte{}} }

func refKey(spec *sbgp.JobSpec) string {
	key, err := json.Marshal(spec.Canonical())
	if err != nil {
		panic(err) // a JobSpec always marshals
	}
	return string(key)
}

// get returns a spec's reference, computing it on first use.
func (refs *references) get(spec *sbgp.JobSpec) ([]byte, error) {
	key := refKey(spec)
	refs.mu.Lock()
	b, ok := refs.byID[key]
	refs.mu.Unlock()
	if ok {
		return b, nil
	}
	ref := spec.Clone()
	ref.Incremental = "off"
	ref.Workers = 1
	ref.Checkpoint, ref.Resume = "", false
	sc, err := sbgp.FromJobSpec(ref)
	if err != nil {
		return nil, err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return nil, err
	}
	res, err := sim.Sweep(sim.JobPairs())
	if err != nil {
		return nil, err
	}
	b, err = encode(res)
	if err != nil {
		return nil, err
	}
	refs.mu.Lock()
	refs.byID[key] = b
	refs.mu.Unlock()
	return b, nil
}

// prefetch computes the references of several specs, up to parallel
// of them at once (each still on one worker).
func (refs *references) prefetch(specs []*sbgp.JobSpec, parallel int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	sem := make(chan struct{}, parallel)
	for i, spec := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			_, errs[i] = refs.get(spec)
			<-sem
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// encode serializes a result the way the daemon stores it.
func encode(res *sbgp.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
