// Command bgpsim runs a single attack scenario on a topology (generated
// or loaded from the asgraph text format) and reports the security
// metric, partition fractions, and downgrade counts for one
// attacker-destination pair — a microscope for a single cell of the
// paper's aggregate figures. It is built entirely on the public sbgp
// facade.
//
// The threat model is pluggable: -attack selects the paper's one-hop
// hijack (default), no attack, an RPKI-stopped origin spoof, or a
// padded-path attack ("pad-K").
//
// With -sweep it instead evaluates the full (model × deployment ×
// attacker × destination) grid — every security model against the
// chosen deployment and the baseline, over sampled pairs — and prints
// the grid as JSON. -full drops the sampling and enumerates every
// (non-stub attacker, destination) pair; -shards/-checkpoint/-resume
// run the grid through the sharded evaluator with a durable per-shard
// checkpoint, so an interrupted enumeration resumes instead of
// restarting (the output stays byte-identical either way).
//
// With -job spec.json it evaluates the sweep-grid job described by a
// versioned sbgp.JobSpec JSON file — the same spec format the sbgpd
// daemon accepts — and prints the grid as JSON. The scattered -sweep
// grid flags are the deprecated spelling of the same job, mapped onto
// a JobSpec by one shared conversion helper, so both spellings print
// byte-identical grids. New automation should write a spec file.
//
// Examples:
//
//	bgpsim -n 4000 -d 17 -m 212 -model 2 -deploy t1t2
//	bgpsim -n 4000 -d 17 -m 212 -deploy t1t2 -attack pad-3
//	bgpsim -n 4000 -deploy t1t2 -sweep -maxm 24 -maxd 32
//	bgpsim -n 4000 -deploy t1t2 -sweep -full -checkpoint sweep.ckpt -resume
//	bgpsim -job spec.json > grid.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sbgp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpsim: ")
	graphPath := flag.String("graph", "", "topology file (empty: generate)")
	n := flag.Int("n", 4000, "generated topology size")
	seed := flag.Int64("seed", 1, "generator seed")
	dst := flag.Int("d", 0, "destination AS index")
	att := flag.Int("m", -1, "attacker AS index (-1: normal conditions)")
	modelFlag := flag.Int("model", 3, "security model: 1, 2, or 3")
	lpk := flag.Int("lpk", 0, "LPk local-preference variant (0 = standard)")
	deployFlag := flag.String("deploy", "none",
		"deployment: "+strings.Join(sbgp.DeploymentNames(), "|"))
	attackFlag := flag.String("attack", "one-hop",
		"attack strategy: one-hop|none|origin-spoof|pad-K")
	showPath := flag.Int("path", -1, "print the route of this AS")
	sweepFlag := flag.Bool("sweep", false, "evaluate the full model/deployment grid and print JSON")
	maxM := flag.Int("maxm", 24, "attacker sample size (with -sweep)")
	maxD := flag.Int("maxd", 32, "destination sample size (with -sweep)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS; with -sweep)")
	full := flag.Bool("full", false,
		"with -sweep: enumerate every (non-stub attacker, destination) pair instead of sampling")
	shards := flag.Int("shards", 0,
		"with -sweep: cells per shard (0 = default; enables sharded evaluation)")
	checkpoint := flag.String("checkpoint", "",
		"with -sweep: JSON-lines checkpoint file (one fsync'd record per completed shard)")
	resume := flag.Bool("resume", false,
		"with -sweep: skip shards already recorded in -checkpoint")
	var incremental sbgp.IncrementalFlag
	flag.Var(&incremental,
		"incremental",
		"with -sweep: delta scheduling mode, -incremental=auto|on|off (default auto reuses fixed points across nested deployments; bare -incremental means on; identical results)")
	jobPath := flag.String("job", "",
		"evaluate the sweep-grid job described by this JobSpec JSON file and print the grid (replaces the deprecated -sweep grid flags)")
	verbose := flag.Bool("v", false,
		"with -sweep or -job: print scheduler planner and dispatch stats to stderr")
	flag.Parse()

	if *jobPath != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "job", "workers", "v":
			default:
				log.Fatalf("-%s is part of the deprecated flag spelling and conflicts with -job (put it in the spec file)", f.Name)
			}
		})
		spec, err := sbgp.LoadJobSpec(*jobPath)
		if err != nil {
			log.Fatal(err)
		}
		if *workers != 0 {
			spec.Workers = *workers
		}
		if err := printGrid(spec, *verbose); err != nil {
			log.Fatal(err)
		}
		return
	}

	var model sbgp.Model
	switch *modelFlag {
	case 1:
		model = sbgp.Sec1st
	case 2:
		model = sbgp.Sec2nd
	case 3:
		model = sbgp.Sec3rd
	default:
		log.Fatalf("unknown model %d", *modelFlag)
	}
	attack, err := sbgp.ParseAttack(*attackFlag)
	if err != nil {
		log.Fatal(err)
	}

	if *sweepFlag {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "d", "m", "model", "path":
				log.Fatalf("-%s selects a single scenario and conflicts with -sweep", f.Name)
			case "maxm", "maxd":
				if *full {
					log.Fatalf("-%s samples pairs and conflicts with -full", f.Name)
				}
			}
		})
		if *resume && *checkpoint == "" {
			log.Fatal("-resume needs -checkpoint")
		}
		// The deprecated grid flags are one spelling of a JobSpec: map
		// them through the shared conversion helper and evaluate the
		// spec exactly as -job (and the sbgpd daemon) would, so both
		// spellings print byte-identical grids.
		spec, err := legacySweepSpec(*graphPath, *n, *seed, *lpk, *deployFlag, *attackFlag,
			incremental.Mode, *full, *maxM, *maxD, *shards, *checkpoint, *resume, *workers)
		if err != nil {
			log.Fatal(err)
		}
		if err := printGrid(spec, *verbose); err != nil {
			log.Fatal(err)
		}
		return
	}

	opts := []sbgp.Option{
		sbgp.WithModel(model),
		sbgp.WithLocalPref(sbgp.LocalPref{K: *lpk}),
		sbgp.WithNamedDeployment(*deployFlag),
		sbgp.WithAttack(attack),
		sbgp.WithWorkers(*workers),
		sbgp.WithIncremental(incremental.Mode),
	}
	if *graphPath != "" {
		opts = append(opts, sbgp.WithGraphFile(*graphPath))
	} else {
		opts = append(opts, sbgp.WithGeneratedTopology(*n, *seed))
	}
	sim, err := sbgp.NewScenario(opts...).Simulate()
	if err != nil {
		log.Fatal(err)
	}
	g := sim.Graph()

	d := sbgp.AS(*dst)
	m := sbgp.AS(*att)
	dep := sim.Deployment()
	fmt.Printf("%s, %s, destination AS%d", model, sbgp.LocalPref{K: *lpk}, d)
	if m != sbgp.NoAS {
		fmt.Printf(", attacker AS%d (%s)", m, attack.Name())
	}
	fmt.Printf(", %d secure ASes\n", dep.SecureCount())

	if m != sbgp.NoAS {
		normalRun, err := sim.RunNormal(d)
		if err != nil {
			log.Fatal(err)
		}
		normal := normalRun.Clone()
		attackOut, err := sim.Run(d, m)
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := attackOut.HappyBounds()
		src := attackOut.NumSources()
		fmt.Printf("happy sources: %.1f%% .. %.1f%% of %d\n",
			100*float64(lo)/float64(src), 100*float64(hi)/float64(src), src)
		fmt.Printf("secure routes: %d normal, %d under attack, %d downgraded\n",
			sbgp.CountSecure(normal), sbgp.CountSecure(attackOut),
			sbgp.CountDowngraded(normal, attackOut))
		part, err := sim.Partition(d, m)
		if err != nil {
			log.Fatal(err)
		}
		im, dm, pr := part.Counts(model)
		fmt.Printf("partition (one-hop attack): %d immune, %d doomed, %d protectable\n", im, dm, pr)
		if *showPath >= 0 && *showPath < g.N() {
			fmt.Printf("route of AS%d: %v (%v, %s)\n", *showPath,
				attackOut.Path(sbgp.AS(*showPath)), attackOut.Label[*showPath],
				attackOut.Class[*showPath])
		}
		return
	}
	normal, err := sim.RunNormal(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure routes under normal conditions: %d of %d sources\n",
		sbgp.CountSecure(normal), normal.NumSources())
	if *showPath >= 0 && *showPath < g.N() {
		fmt.Printf("route of AS%d: %v (%s)\n", *showPath,
			normal.Path(sbgp.AS(*showPath)), normal.Class[*showPath])
	}
}

// legacySweepSpec maps the deprecated -sweep grid-flag surface onto the
// unified JobSpec through the one shared conversion helper.
func legacySweepSpec(graph string, n int, seed int64, lpk int, deployName, attack string,
	mode sbgp.IncrementalMode, full bool, maxM, maxD, shards int, checkpoint string,
	resume bool, workers int) (*sbgp.JobSpec, error) {
	lf := sbgp.LegacyFlags{
		GraphFile:   graph,
		LPK:         lpk,
		Deployments: []string{deployName},
		Attack:      attack,
		Incremental: mode.String(),
		Full:        full,
		MaxM:        maxM, MaxD: maxD,
		ShardSize:  shards,
		Checkpoint: checkpoint,
		Resume:     resume,
		Workers:    workers,
	}
	if graph == "" {
		lf.N, lf.Seed = n, seed
	}
	return lf.JobSpec()
}

// printGrid evaluates a job through the one shared path (the same
// FromJobSpec → Simulate → EvaluateJob pipeline the daemon uses) and
// prints the result grid as JSON. With verbose set, the scheduler's
// planner and dispatch stats go to stderr — stdout stays byte-identical
// grid JSON either way.
func printGrid(spec *sbgp.JobSpec, verbose bool) error {
	sc, err := sbgp.FromJobSpec(spec)
	if err != nil {
		return err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return err
	}
	var stats sbgp.ShardStats
	res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Stats: &stats})
	if err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr,
			"bgpsim: schedule: %d chain heads, %d delta edges, predicted volume %d; dispatch: %d units, mid-walk shard starts %d\n",
			stats.ChainHeads, stats.DeltaEdges, stats.PredictedVolume,
			stats.Units, stats.HandoffMisses)
	}
	return res.WriteJSON(os.Stdout)
}
