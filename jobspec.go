package sbgp

// JobSpec is the unified, versioned description of one sweep-grid job —
// the single source of truth consumed by the resident daemon
// (cmd/sbgpd, internal/service), cmd/experiments, and cmd/bgpsim alike.
// Everything that shapes a job's result lives here: the topology
// source, the security models and local-preference variant, the
// deployment axis, the threat model, the attacker/destination pair
// policy, and the shard/incremental/checkpoint execution options. The
// same spec therefore produces byte-identical result JSON whether it is
// submitted to the daemon, run one-shot by a CLI, or rebuilt from the
// CLIs' legacy flags (LegacyFlags is the one conversion helper both
// CLIs share).
//
// The wire format is strict JSON (unknown fields rejected) with an
// explicit version so a daemon and its clients can evolve
// independently: version 0 means "current" on input, and every spec a
// build emits carries JobSpecVersion. Canonical() resolves defaults and
// aliases into one normal form, so two specs describe the same job
// exactly when their canonical forms are equal — the property the
// round-trip tests pin.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// JobSpecVersion is the job wire-format version this build writes.
// Input specs may carry 0 (meaning "current") or this exact value.
const JobSpecVersion = 1

// Default pair-sampling caps when a spec does not enumerate fully and
// leaves the caps zero — the experiment scale of the CLIs' defaults.
const (
	DefaultMaxM = 24
	DefaultMaxD = 32
)

// JobSpec declares one sweep-grid job. See the package comment above
// and DESIGN.md ("JobSpec versioning") for the format contract.
type JobSpec struct {
	// Version is JobSpecVersion, or 0 for "current".
	Version int `json:"version"`
	// Name is an optional human label echoed by the daemon's status
	// endpoints; it does not affect the result.
	Name string `json:"name,omitempty"`

	// Topology names the job's topology source.
	Topology TopologySpec `json:"topology"`

	// Models lists the security-model axis as 1-based placements
	// (1 = security 1st, 2 = security 2nd, 3 = security 3rd), in axis
	// order. Empty means all three.
	Models []int `json:"models,omitempty"`
	// LPK selects the LPk local-preference variant; 0 is the standard
	// LP model.
	LPK int `json:"lpk,omitempty"`

	// Deployments is the deployment axis after the implicit baseline.
	Deployments []JobDeployment `json:"deployments,omitempty"`

	// Attack names the threat-model strategy, as accepted by
	// ParseAttack; empty means the paper's one-hop hijack.
	Attack string `json:"attack,omitempty"`

	// Pairs selects the attacker/destination pair policy.
	Pairs PairSpec `json:"pairs"`

	// Incremental is the delta-scheduling mode, as accepted by
	// ParseIncrementalMode; empty means "auto".
	Incremental string `json:"incremental,omitempty"`

	// ShardSize is the cells-per-shard of the sharded evaluation;
	// 0 means DefaultShardSize.
	ShardSize int `json:"shard_size,omitempty"`
	// Checkpoint names a JSON-lines checkpoint file recording every
	// completed shard. The daemon ignores it and manages its own
	// per-job checkpoint under the data directory.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Resume skips the shards already recorded in Checkpoint.
	Resume bool `json:"resume,omitempty"`

	// Workers is the evaluation worker-pool size; 0 means GOMAXPROCS.
	// Results never depend on it.
	Workers int `json:"workers,omitempty"`
}

// TopologySpec names a job's topology source: a generated synthetic
// Internet (N, Seed) or a graph file in the asgraph text format —
// GraphFile wins when set, and setting both N and GraphFile is a
// validation error.
type TopologySpec struct {
	// N is the generated topology size; 0 means 4000. Unused with
	// GraphFile.
	N int `json:"n,omitempty"`
	// Seed selects the generator stream. It is always serialized (no
	// omitempty), so seed 0 is an honest, explicit stream.
	Seed int64 `json:"seed"`
	// GraphFile loads the topology from a file instead of generating.
	GraphFile string `json:"graph_file,omitempty"`
	// IXP adds the Appendix J IXP peering augmentation (generated
	// topologies only — a loaded graph has no IXP memberships).
	IXP bool `json:"ixp,omitempty"`
}

// JobDeployment is one entry of the deployment axis: a standard named
// scenario (Named, one of DeploymentNames minus "none") or a
// declarative spec (Spec), under an optional display name that defaults
// to Named. Exactly one of Named and Spec must be set.
type JobDeployment struct {
	Name  string          `json:"name,omitempty"`
	Named string          `json:"named,omitempty"`
	Spec  *DeploymentSpec `json:"spec,omitempty"`
}

// PairSpec selects the job's attacker/destination pairs: the paper's
// full enumeration (every non-stub attacker × every destination), or a
// deterministic sample capped at MaxM × MaxD.
type PairSpec struct {
	// Full enumerates every (non-stub attacker, destination) pair;
	// MaxM and MaxD must then be zero.
	Full bool `json:"full,omitempty"`
	// MaxM and MaxD cap the sampled attacker and destination sets;
	// 0 means DefaultMaxM / DefaultMaxD.
	MaxM int `json:"max_m,omitempty"`
	MaxD int `json:"max_d,omitempty"`
}

// modelFromNumber resolves a 1-based model placement.
func modelFromNumber(n int) (Model, error) {
	switch n {
	case 1:
		return Sec1st, nil
	case 2:
		return Sec2nd, nil
	case 3:
		return Sec3rd, nil
	}
	return 0, fmt.Errorf("sbgp: security model %d out of range (want 1, 2, or 3)", n)
}

// validNamedDeployments are the Named values a spec may carry: the
// WithNamedDeployment scenarios minus "none" (which adds nothing and is
// dropped by the flag conversion instead).
func validNamedDeployment(name string) bool {
	for _, n := range DeploymentNames() {
		if n != "none" && n == name {
			return true
		}
	}
	return false
}

// Validate checks the spec's internal consistency — version, axis
// values, token fields (attack, incremental), pair policy, and
// execution options. It validates the raw spec; Canonical() resolves
// defaults. Errors name the offending field and the valid choices.
func (s *JobSpec) Validate() error {
	if s.Version != 0 && s.Version != JobSpecVersion {
		return fmt.Errorf("sbgp: unsupported job spec version %d (this build speaks version %d; 0 means current)",
			s.Version, JobSpecVersion)
	}
	t := s.Topology
	if t.GraphFile != "" && t.N != 0 {
		return fmt.Errorf("sbgp: job topology sets both graph_file %q and generated size n=%d (pick one source)",
			t.GraphFile, t.N)
	}
	if t.N < 0 {
		return fmt.Errorf("sbgp: job topology size n=%d is negative", t.N)
	}
	if t.GraphFile != "" && t.IXP {
		return fmt.Errorf("sbgp: ixp augmentation needs a generated topology (graph files carry no IXP memberships)")
	}
	seenModel := map[int]bool{}
	for _, m := range s.Models {
		if _, err := modelFromNumber(m); err != nil {
			return err
		}
		if seenModel[m] {
			return fmt.Errorf("sbgp: duplicate security model %d on the model axis", m)
		}
		seenModel[m] = true
	}
	if s.LPK < 0 {
		return fmt.Errorf("sbgp: lpk=%d is negative", s.LPK)
	}
	seen := map[string]bool{"baseline": true}
	for i, d := range s.Deployments {
		name := d.Name
		if name == "" {
			name = d.Named
		}
		if name == "" {
			return fmt.Errorf("sbgp: deployment %d has no name (set name, or named which doubles as one)", i)
		}
		if seen[name] {
			return fmt.Errorf("sbgp: duplicate deployment name %q", name)
		}
		seen[name] = true
		switch {
		case d.Named != "" && d.Spec != nil:
			return fmt.Errorf("sbgp: deployment %q sets both named and spec (pick one)", name)
		case d.Named != "":
			if !validNamedDeployment(d.Named) {
				return fmt.Errorf("sbgp: unknown named deployment %q (want t1t2, t1t2cp, t2, or nonstubs)", d.Named)
			}
		case d.Spec == nil:
			return fmt.Errorf("sbgp: deployment %q is empty (set named or spec)", name)
		}
	}
	if _, err := ParseAttack(s.Attack); err != nil {
		return err
	}
	if _, err := ParseIncrementalMode(s.Incremental); err != nil {
		return err
	}
	if s.Pairs.MaxM < 0 || s.Pairs.MaxD < 0 {
		return fmt.Errorf("sbgp: negative pair caps (max_m=%d max_d=%d)", s.Pairs.MaxM, s.Pairs.MaxD)
	}
	if s.Pairs.Full && (s.Pairs.MaxM != 0 || s.Pairs.MaxD != 0) {
		return fmt.Errorf("sbgp: pairs.full enumerates every pair and excludes the max_m/max_d sampling caps")
	}
	if s.ShardSize < 0 {
		return fmt.Errorf("sbgp: shard_size=%d is negative", s.ShardSize)
	}
	if s.Resume && s.Checkpoint == "" {
		return fmt.Errorf("sbgp: resume needs a checkpoint file")
	}
	if s.Workers < 0 {
		return fmt.Errorf("sbgp: workers=%d is negative", s.Workers)
	}
	return nil
}

// Clone returns a deep copy of the spec.
func (s *JobSpec) Clone() *JobSpec {
	c := *s
	c.Models = append([]int(nil), s.Models...)
	if s.Models == nil {
		c.Models = nil
	}
	if s.Deployments != nil {
		c.Deployments = make([]JobDeployment, len(s.Deployments))
		for i, d := range s.Deployments {
			c.Deployments[i] = d
			if d.Spec != nil {
				sp := *d.Spec
				sp.CPs = append([]AS(nil), d.Spec.CPs...)
				if d.Spec.CPs == nil {
					sp.CPs = nil
				}
				c.Deployments[i].Spec = &sp
			}
		}
	}
	return &c
}

// Canonical returns the spec's normal form: version pinned, defaults
// resolved (topology size, model axis, pair caps), alias spellings
// replaced by their canonical names (attack, incremental), and
// deployment display names defaulted from their Named field. Two specs
// describe the same job exactly when their canonical forms are equal;
// Simulation.JobSpec always returns a canonical spec. Canonical assumes
// a valid spec (call Validate first on untrusted input).
func (s *JobSpec) Canonical() *JobSpec {
	c := s.Clone()
	c.Version = JobSpecVersion
	if c.Topology.GraphFile == "" && c.Topology.N == 0 {
		c.Topology.N = 4000
	}
	if len(c.Models) == 0 {
		c.Models = []int{1, 2, 3}
	}
	// An empty list and an absent one are the same job, and the wire
	// form omits both.
	if len(c.Deployments) == 0 {
		c.Deployments = nil
	}
	for i := range c.Deployments {
		if c.Deployments[i].Name == "" {
			c.Deployments[i].Name = c.Deployments[i].Named
		}
		if sp := c.Deployments[i].Spec; sp != nil && len(sp.CPs) == 0 {
			sp.CPs = nil
		}
	}
	if a, err := ParseAttack(c.Attack); err == nil {
		c.Attack = a.Name()
	}
	if m, err := ParseIncrementalMode(c.Incremental); err == nil {
		c.Incremental = m.String()
	}
	if !c.Pairs.Full {
		if c.Pairs.MaxM == 0 {
			c.Pairs.MaxM = DefaultMaxM
		}
		if c.Pairs.MaxD == 0 {
			c.Pairs.MaxD = DefaultMaxD
		}
	}
	return c
}

// WriteJSON serializes the spec, indented, with a trailing newline.
func (s *JobSpec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJobSpec parses and validates one JSON job spec. The decode is
// strict: unknown fields and trailing data are errors, so a typo'd
// option fails loudly instead of silently meaning its default.
func ReadJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sbgp: job spec: %w", err)
	}
	// More reports false before a stray '}' or ']', so ask for the
	// next token: only the end of the input is clean.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("sbgp: job spec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadJobSpec is ReadJobSpec from a file — the CLIs' -job loader.
func LoadJobSpec(path string) (*JobSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadJobSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// FromJobSpec builds the Scenario a spec describes. The returned
// scenario Simulates like any other — and the resulting Simulation's
// JobSpec() returns the spec's canonical form, so the wire format and
// the facade options can never drift (pinned by the round-trip tests).
// Extra options are applied after the spec-derived ones (WithContext is
// the common one — a job's cancellation plumbing).
func FromJobSpec(spec *JobSpec, extra ...Option) (*Scenario, error) {
	return fromJobSpec(spec, nil, nil, extra)
}

// FromJobSpecOnGraph is FromJobSpec with the topology supplied by the
// caller instead of loaded or generated per the spec — the resident
// daemon's warm-topology path: the service materializes each distinct
// topology section once and rebuilds scenarios for every job against
// the cached graph. The caller asserts (g, meta) are exactly what the
// spec's topology section would produce before any IXP augmentation
// (which still happens per the spec); everything else applies
// unchanged, so results are byte-identical to FromJobSpec.
func FromJobSpecOnGraph(spec *JobSpec, g *Graph, meta *TopologyMeta, extra ...Option) (*Scenario, error) {
	if g == nil {
		return nil, fmt.Errorf("sbgp: FromJobSpecOnGraph needs a graph")
	}
	return fromJobSpec(spec, g, meta, extra)
}

func fromJobSpec(spec *JobSpec, g *Graph, meta *TopologyMeta, extra []Option) (*Scenario, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := spec.Canonical()
	var opts []Option
	switch {
	case g != nil:
		opts = append(opts, WithGraph(g, meta))
	case c.Topology.GraphFile != "":
		opts = append(opts, WithGraphFile(c.Topology.GraphFile))
	default:
		opts = append(opts, WithGeneratedTopology(c.Topology.N, c.Topology.Seed))
	}
	if c.Topology.IXP {
		opts = append(opts, WithIXPAugmentation())
	}
	models := make([]Model, len(c.Models))
	for i, n := range c.Models {
		m, err := modelFromNumber(n)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	opts = append(opts, WithModels(models...))
	if len(models) == 1 {
		opts = append(opts, WithModel(models[0]))
	}
	opts = append(opts, WithLocalPref(LocalPref{K: c.LPK}))
	for _, d := range c.Deployments {
		if d.Named != "" {
			opts = append(opts, WithNamedDeploymentAs(d.Name, d.Named))
		} else {
			opts = append(opts, WithDeployment(d.Name, *d.Spec))
		}
	}
	attack, err := ParseAttack(c.Attack)
	if err != nil {
		return nil, err
	}
	opts = append(opts, WithAttack(attack))
	mode, err := ParseIncrementalMode(c.Incremental)
	if err != nil {
		return nil, err
	}
	opts = append(opts, WithIncremental(mode))
	if c.Pairs.Full {
		opts = append(opts, WithFullEnumeration())
	} else {
		opts = append(opts, WithPairSampling(c.Pairs.MaxM, c.Pairs.MaxD))
	}
	opts = append(opts,
		WithWorkers(c.Workers),
		WithShardSize(c.ShardSize),
		WithCheckpoint(c.Checkpoint),
	)
	if c.Resume {
		opts = append(opts, WithResume())
	}
	opts = append(opts, extra...)
	sc := NewScenario(opts...)
	sc.name = c.Name
	return sc, nil
}

// jobSpecOf reconstructs the wire spec from a scenario's configuration,
// canonical form. It fails (with a descriptive error surfaced by
// Simulation.JobSpec) when the scenario uses a capability the wire
// format cannot carry: an in-memory graph, prebuilt deployments,
// generator parameters beyond (n, seed), a custom Attack whose name the
// parser does not know, or resolved tiebreaks.
func jobSpecOf(sc *Scenario) (*JobSpec, error) {
	spec := &JobSpec{Version: JobSpecVersion, Name: sc.name}
	switch {
	case sc.graph != nil:
		return nil, fmt.Errorf("sbgp: a scenario over an in-memory graph has no serializable job spec")
	case sc.graphPath != "":
		spec.Topology = TopologySpec{GraphFile: sc.graphPath, IXP: sc.ixp}
	default:
		p := sc.genParams
		if p == nil {
			p = &TopologyParams{N: 4000, Seed: 1}
		}
		rest := *p
		rest.N, rest.Seed, rest.SeedSet = 0, 0, false
		if rest != (TopologyParams{}) {
			return nil, fmt.Errorf("sbgp: generator parameters beyond (n, seed) are not representable in a job spec")
		}
		seed := p.Seed
		if seed == 0 && !p.SeedSet {
			seed = 1
		}
		spec.Topology = TopologySpec{N: p.N, Seed: seed, IXP: sc.ixp}
	}
	if sc.resolve {
		return nil, fmt.Errorf("sbgp: resolved tiebreaks are not representable in a job spec")
	}
	for _, m := range sc.models {
		spec.Models = append(spec.Models, int(m)+1)
	}
	spec.LPK = sc.lp.K
	for _, sd := range sc.deployments {
		switch {
		case sd.prebuilt != nil:
			return nil, fmt.Errorf("sbgp: prebuilt deployment %q is not representable in a job spec", sd.name)
		case sd.named != "":
			spec.Deployments = append(spec.Deployments, JobDeployment{Name: sd.name, Named: sd.named})
		default:
			spec.Deployments = append(spec.Deployments, JobDeployment{Name: sd.name, Spec: sd.spec})
		}
	}
	if sc.attack != nil {
		name := sc.attack.Name()
		if _, err := ParseAttack(name); err != nil {
			return nil, fmt.Errorf("sbgp: attack %q is not representable in a job spec", name)
		}
		spec.Attack = name
	}
	spec.Incremental = sc.incremental.String()
	spec.Pairs = sc.pairs
	spec.ShardSize = sc.shardSize
	spec.Checkpoint = sc.checkpoint
	spec.Resume = sc.resume
	spec.Workers = sc.workers
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.Canonical(), nil
}

// LegacyFlags captures the scattered flag surface the CLIs exposed
// before the JobSpec redesign (-n/-seed/-graph/-deploy/-attack/-full/
// -maxm/-maxd/-shards/-checkpoint/-resume/-incremental/-workers).
// JobSpec() is the single conversion helper both cmd/experiments and
// cmd/bgpsim share, so the legacy spelling and -job spec.json can never
// produce different jobs — equality of the two spellings is pinned by
// tests in both commands.
type LegacyFlags struct {
	GraphFile string
	N         int
	Seed      int64
	// Models is the model axis as 1-based placements; empty = all three.
	Models []int
	LPK    int
	// Deployments are named scenarios (WithNamedDeployment spellings);
	// "none" entries are dropped.
	Deployments []string
	Attack      string
	Incremental string
	Full        bool
	MaxM, MaxD  int
	ShardSize   int
	Checkpoint  string
	Resume      bool
	Workers     int
}

// JobSpec maps the legacy flags onto the unified spec (canonical form).
func (lf LegacyFlags) JobSpec() (*JobSpec, error) {
	spec := &JobSpec{Version: JobSpecVersion}
	if lf.GraphFile != "" {
		spec.Topology = TopologySpec{GraphFile: lf.GraphFile}
	} else {
		spec.Topology = TopologySpec{N: lf.N, Seed: lf.Seed}
	}
	spec.Models = append([]int(nil), lf.Models...)
	spec.LPK = lf.LPK
	for _, name := range lf.Deployments {
		if name == "" || name == "none" {
			continue
		}
		spec.Deployments = append(spec.Deployments, JobDeployment{Named: name})
	}
	spec.Attack = lf.Attack
	spec.Incremental = lf.Incremental
	if lf.Full {
		// The sampling caps are flag defaults, meaningless under full
		// enumeration; the CLIs reject an explicit -maxm/-maxd with
		// -full before converting.
		spec.Pairs = PairSpec{Full: true}
	} else {
		spec.Pairs = PairSpec{MaxM: lf.MaxM, MaxD: lf.MaxD}
	}
	spec.ShardSize = lf.ShardSize
	spec.Checkpoint = lf.Checkpoint
	spec.Resume = lf.Resume
	spec.Workers = lf.Workers
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.Canonical(), nil
}
