package sbgp

import (
	"context"
	"fmt"
)

// Simulation is a materialized Scenario: a validated topology with its
// tier classification, built deployments, and lazily constructed
// engines. A Simulation is cheap to query repeatedly but, like the
// engines it wraps, must not be shared between goroutines; Sweep
// parallelism is managed internally and safe.
type Simulation struct {
	g     *Graph
	meta  *TopologyMeta
	tiers *Tiers

	model       Model
	models      []Model
	lp          LocalPref
	attack      Attack
	workers     int
	ctx         context.Context
	resolve     bool
	incremental IncrementalMode

	pairs PairSpec

	shardSize  int
	checkpoint string
	resume     bool

	// jobSpec is the scenario's serializable wire form, reconstructed
	// from its configuration at Simulate time (jobSpecErr when the
	// scenario uses a capability the wire format cannot carry).
	jobSpec    *JobSpec
	jobSpecErr error

	// coordinator, when non-nil (WithCoordinator), is the distributed
	// evaluation backend EvaluateJobDistributed hands the job to.
	coordinator JobCoordinator

	// deployments is the sweep axis (primary first); the implicit
	// baseline is prepended at sweep time.
	deployments []GridDeployment

	engines     [NumModels]*Engine
	partitioner *Partitioner
}

// Graph returns the simulation's topology.
func (s *Simulation) Graph() *Graph { return s.g }

// Meta returns the topology's generator side information (content
// providers, IXPs); empty for loaded or user-supplied graphs without
// metadata.
func (s *Simulation) Meta() *TopologyMeta { return s.meta }

// Tiers returns the Table 1 tier classification.
func (s *Simulation) Tiers() *Tiers { return s.tiers }

// Model returns the primary security model.
func (s *Simulation) Model() Model { return s.model }

// Attack returns the threat-model strategy (nil: the default one-hop
// hijack).
func (s *Simulation) Attack() Attack { return s.attack }

// Deployment returns the primary deployment, or nil for the S = ∅
// baseline.
func (s *Simulation) Deployment() *Deployment {
	if len(s.deployments) == 0 {
		return nil
	}
	return s.deployments[0].Dep
}

// Engine returns the simulation's engine for a security model,
// constructing it on first use with the scenario's local-preference and
// tiebreak settings. The engine is owned by the simulation; use it for
// custom run sequences the convenience methods do not cover.
func (s *Simulation) Engine(m Model) *Engine {
	if int(m) < 0 || int(m) >= NumModels {
		panic(fmt.Sprintf("sbgp: unknown model %v", m))
	}
	if s.engines[m] == nil {
		var opts []EngineOption
		if s.resolve {
			opts = append(opts, EngineResolvedTiebreak())
		}
		s.engines[m] = NewEngineLP(s.g, m, s.lp, opts...)
	}
	return s.engines[m]
}

// checkRun validates a (destination, attacker) pair against the graph
// and the scenario context.
func (s *Simulation) checkRun(d, m AS) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if int(d) < 0 || int(d) >= s.g.N() {
		return fmt.Errorf("sbgp: destination AS%d out of range [0,%d)", d, s.g.N())
	}
	if m != NoAS && (int(m) < 0 || int(m) >= s.g.N()) {
		return fmt.Errorf("sbgp: attacker AS%d out of range [0,%d)", m, s.g.N())
	}
	if m == d {
		return fmt.Errorf("sbgp: attacker equals destination (AS%d)", d)
	}
	return nil
}

// Run computes the routing outcome for one (destination, attacker)
// pair under the primary model, primary deployment, and configured
// attack. Pass m = NoAS for normal conditions. The outcome is owned by
// the underlying engine and valid until its next run; Clone to retain.
func (s *Simulation) Run(d, m AS) (*Outcome, error) {
	return s.RunWith(s.model, d, m, s.Deployment())
}

// RunNormal is Run under normal conditions (no attacker).
func (s *Simulation) RunNormal(d AS) (*Outcome, error) {
	return s.Run(d, NoAS)
}

// RunWith is Run with an explicit model and deployment (nil dep: the
// S = ∅ baseline) — the general form behind the convenience wrappers.
func (s *Simulation) RunWith(model Model, d, m AS, dep *Deployment) (*Outcome, error) {
	if err := s.checkRun(d, m); err != nil {
		return nil, err
	}
	return s.Engine(model).RunAttack(d, m, dep, s.attack), nil
}

// Partition computes the doomed/immune/protectable partition for a
// pair. Partitions are defined for the paper's one-hop attack
// regardless of the scenario's attack strategy.
func (s *Simulation) Partition(d, m AS) (*Partition, error) {
	if err := s.checkRun(d, m); err != nil {
		return nil, err
	}
	if m == NoAS {
		return nil, fmt.Errorf("sbgp: partitions need an attacker")
	}
	if s.partitioner == nil {
		s.partitioner = NewPartitioner(s.g, s.lp)
	}
	return s.partitioner.Run(d, m), nil
}

// Sweep evaluates the full scenario grid — every configured model (all
// three by default) × the implicit baseline plus every configured
// deployment × the given attacker and destination sets — under the
// scenario's attack strategy. Results are byte-identical at any worker
// count; cancelling the scenario context aborts the sweep promptly
// with ctx.Err().
func (s *Simulation) Sweep(attackers, destinations []AS) (*Result, error) {
	return s.SweepGrid(s.grid(attackers, destinations))
}

// grid assembles the scenario's sweep grid over the given pair sets.
func (s *Simulation) grid(attackers, destinations []AS) *Grid {
	return &Grid{
		Models:       s.models,
		LP:           s.lp,
		Deployments:  append([]GridDeployment{{Name: "baseline"}}, s.deployments...),
		Attackers:    attackers,
		Destinations: destinations,
		Attack:       s.attack,
		Incremental:  s.incremental,
		Workers:      s.workers,
	}
}

// RunDeltaSeries computes the outcome of one (destination, attacker)
// pair under each deployment of a series, in order, reusing each step's
// fixed point for the next via Engine.RunDelta. Deltas are signed, so
// every step is incremental — growing steps (the nested S₁ ⊂ S₂ ⊂ …
// shape of the paper's rollout experiments), shrinking ones (a rollback
// walking the same slope down), and remove-then-add steps between
// incomparable deployments alike; the engine itself falls back to a
// from-scratch run only when a step's dirty region grows past its
// delta threshold. Pass m = NoAS for normal conditions, and nil entries
// for the S = ∅ baseline. Each returned outcome is an independent
// clone, indexed like deps; results are identical to running every
// deployment from scratch. Cancelling the scenario context aborts the
// series between steps.
func (s *Simulation) RunDeltaSeries(d, m AS, deps []*Deployment) ([]*Outcome, error) {
	if err := s.checkRun(d, m); err != nil {
		return nil, err
	}
	e := s.Engine(s.model)
	out := make([]*Outcome, len(deps))
	var prev *Outcome
	for i, dep := range deps {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		var o *Outcome
		if prev != nil {
			added, removed := DeploymentDelta(deps[i-1], dep)
			o = e.RunDelta(prev, added, removed, dep, s.attack)
		} else {
			o = e.RunAttack(d, m, dep, s.attack)
		}
		out[i] = o.Clone()
		prev = o
	}
	return out, nil
}

// SweepSharded is Sweep through the sharded evaluator: the same grid,
// partitioned into fixed-size shards with per-shard durable checkpoint
// records and resume. Zero-valued ShardOptions fields inherit the
// scenario's WithShardSize / WithCheckpoint / WithResume settings. The
// result is byte-identical to Sweep; a sweep cancelled via the scenario
// context can be rerun with resume enabled to skip the shards already
// checkpointed.
func (s *Simulation) SweepSharded(attackers, destinations []AS, opts ShardOptions) (*Result, error) {
	if opts.ShardSize == 0 {
		opts.ShardSize = s.shardSize
	}
	if opts.Checkpoint == "" {
		opts.Checkpoint = s.checkpoint
	}
	opts.Resume = opts.Resume || s.resume
	return s.grid(attackers, destinations).EvaluateSharded(s.ctx, s.g, opts)
}

// SweepGrid evaluates a caller-assembled grid under the scenario
// context. The grid's own axes are used as-is; only the context is
// supplied by the scenario.
func (s *Simulation) SweepGrid(gr *Grid) (*Result, error) {
	return gr.EvaluateContext(s.ctx, s.g)
}

// JobSpec returns the canonical serializable job spec describing this
// simulation's scenario — the exact spec FromJobSpec would rebuild it
// from, reconstructed from the scenario configuration at Simulate time
// so the wire format and the facade options cannot drift (pinned by
// round-trip tests). It errors for scenarios using capabilities the
// wire format cannot carry: an in-memory graph, prebuilt deployments,
// generator parameters beyond (n, seed), resolved tiebreaks, or a
// custom Attack unknown to ParseAttack.
func (s *Simulation) JobSpec() (*JobSpec, error) {
	if s.jobSpecErr != nil {
		return nil, s.jobSpecErr
	}
	return s.jobSpec.Clone(), nil
}

// JobPairs materializes the scenario's pair policy (WithFullEnumeration
// / WithPairSampling, or a job spec's pairs): attackers are the
// non-stub population M′, destinations the full population, sampled
// down to the policy's caps unless enumerating fully. Deterministic for
// a given topology.
func (s *Simulation) JobPairs() (attackers, destinations []AS) {
	ms := NonStubs(s.g)
	ds := AllASes(s.g.N())
	if s.pairs.Full {
		return ms, ds
	}
	maxM, maxD := s.pairs.MaxM, s.pairs.MaxD
	if maxM == 0 {
		maxM = DefaultMaxM
	}
	if maxD == 0 {
		maxD = DefaultMaxD
	}
	return SamplePairs(ms, ds, maxM, maxD)
}

// JobGeometry reports the size of the scenario's job: its grid cell
// count and the number of shards the sharded evaluator will cut it
// into under the scenario's shard size. The daemon's progress
// accounting (shards_done / shards_total) divides by the shard count.
func (s *Simulation) JobGeometry() (cells, shards int, err error) {
	ms, ds := s.JobPairs()
	cells, err = s.grid(ms, ds).CellCount()
	if err != nil {
		return 0, 0, err
	}
	return cells, NumShards(cells, s.shardSize), nil
}

// JobEvalOptions tunes EvaluateJob without changing the job's result:
// an overriding checkpoint location (the daemon stores per-job
// checkpoints under its own data directory, ignoring the spec's), a
// resume override, a streaming sink for completed shards, and a warm
// EnginePool to recycle per-worker engines across evaluations.
type JobEvalOptions struct {
	// Checkpoint overrides the scenario's checkpoint path ("" keeps it).
	Checkpoint string
	// Resume enables resume in addition to the scenario's setting.
	Resume bool
	// Sink observes every completed shard (see ShardOptions.Sink).
	Sink func(*ShardPartial) error
	// Stats, when non-nil, receives the evaluation's planner and
	// dispatch counters (see ShardStats): how the deployment axis was
	// scheduled — chain heads, delta edges, predicted volume — and how
	// the shards were dispatched and how many started mid-walk.
	Stats *ShardStats
	// Pool recycles per-worker engine state across evaluations sharing
	// this simulation's (topology, local-preference) pair.
	Pool *EnginePool
}

// EvaluateJob runs the scenario as a complete job: the configured grid
// over the scenario's own pair policy, through the sharded evaluator.
// This is the one evaluation path shared by the daemon and both CLIs'
// -job modes, so a spec yields byte-identical result bytes no matter
// who runs it — and, via the checkpoint, no matter how often it is
// interrupted and resumed.
func (s *Simulation) EvaluateJob(opts JobEvalOptions) (*Result, error) {
	ms, ds := s.JobPairs()
	gr := s.grid(ms, ds)
	gr.Pool = opts.Pool
	cp := s.checkpoint
	if opts.Checkpoint != "" {
		cp = opts.Checkpoint
	}
	return gr.EvaluateSharded(s.ctx, s.g, ShardOptions{
		ShardSize:  s.shardSize,
		Checkpoint: cp,
		Resume:     opts.Resume || s.resume,
		Sink:       opts.Sink,
		Stats:      opts.Stats,
	})
}

// JobShardPlan returns the scenario job's shard layout — the portable
// identity a coordinator publishes and every worker verifies — plus its
// dispatch units, one ShardRange per shard. No state crosses a shard
// boundary, so a lease may cover any contiguous run of shards. The
// layout's
// fingerprint is the same one EvaluateJob's checkpoint carries, so a
// coordinator's checkpoint and a single-box checkpoint are the same
// file format with the same identity.
func (s *Simulation) JobShardPlan() (*ShardLayout, []ShardRange, error) {
	ms, ds := s.JobPairs()
	return s.grid(ms, ds).PlanShards(s.g, s.shardSize)
}

// EvaluateJobShards evaluates one shard range of the scenario job
// against a layout, streaming each completed shard's exact partial to
// opts.Sink — the worker half of a distributed evaluation. A layout
// minted by a different job is refused with a fingerprint mismatch.
func (s *Simulation) EvaluateJobShards(l *ShardLayout, r ShardRange, opts ShardRangeOptions) error {
	ms, ds := s.JobPairs()
	return s.grid(ms, ds).EvaluateShardRange(s.ctx, s.g, l, r, opts)
}

// MergeJobPartials folds a complete, deduplicated set of shard partials
// (one per shard of the layout, any order) into the job's Result —
// byte-identical to EvaluateJob no matter which workers produced which
// shards.
func (s *Simulation) MergeJobPartials(l *ShardLayout, partials []*ShardPartial) (*Result, error) {
	ms, ds := s.JobPairs()
	return s.grid(ms, ds).MergePartials(s.g, l, partials)
}

// JobCoordinator is a distributed evaluation backend: something that
// can take a serializable job spec and produce its Result by farming
// shard ranges out to workers (internal/dist's Coordinator is the
// in-tree implementation, wired through cmd/sbgpd's -dist mode). The
// options carry the same checkpoint/resume/sink hooks EvaluateJob
// honors; Pool is ignored (workers own their engine state).
type JobCoordinator interface {
	EvaluateJobSpec(ctx context.Context, spec *JobSpec, opts JobEvalOptions) (*Result, error)
}

// EvaluateJobDistributed runs the scenario job through the attached
// coordinator (WithCoordinator) instead of evaluating locally. The
// scenario must be expressible as a JobSpec — workers rebuild the
// simulation from the spec, so in-memory graphs and prebuilt
// deployments cannot ride along. Results are byte-identical to
// EvaluateJob.
func (s *Simulation) EvaluateJobDistributed(opts JobEvalOptions) (*Result, error) {
	if s.coordinator == nil {
		return nil, fmt.Errorf("sbgp: no coordinator attached (use WithCoordinator)")
	}
	spec, err := s.JobSpec()
	if err != nil {
		return nil, err
	}
	return s.coordinator.EvaluateJobSpec(s.ctx, spec, opts)
}
