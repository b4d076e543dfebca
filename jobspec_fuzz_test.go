package sbgp_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"sbgp"
)

// FuzzJobSpec throws arbitrary bytes at the job-spec wire format, the
// daemon's untrusted input. For every input:
//
//   - strict decode feeds Validate: a spec ReadJobSpec returns
//     validates, and equals the lenient decode of the same bytes;
//   - Canonical is idempotent, and the canonical form validates and
//     survives a WriteJSON → ReadJobSpec round trip unchanged;
//   - FromJobSpec, Simulate and JobShardPlan never panic (the harness
//     caps the topology at 200 generated ASes and six deployments, and
//     drops graph files and checkpoints, so an input cannot make it read
//     or write files or build a large topology);
//   - equal canonical forms give equal grid fingerprints: the spec and
//     its canonical form plan the same layout, or both fail.
func FuzzJobSpec(f *testing.F) {
	seeds := []string{
		`{"version":1,"topology":{"n":300,"seed":7},"models":[2,3],"lpk":2,` +
			`"deployments":[{"named":"t1t2"},{"name":"everyone","named":"nonstubs"},` +
			`{"name":"handpicked","spec":{"num_tier2":5,"include_stubs":true}}],` +
			`"attack":"pad-2","pairs":{"max_m":6,"max_d":8},"incremental":"on","shard_size":64,"workers":2}`,
		`{"topology":{"seed":0},"pairs":{"full":true}}`,
		`{"topology":{"n":120,"seed":3,"ixp":true},"deployments":[{"named":"t2"},{"named":"t1t2cp"}]}`,
		`{"topology":{"seed":1},"deployments":[{"name":"cp","spec":{"cps":[5,9999],"simplex_stubs":true}}]}`,
		`{"topology":{"seed":1,"graph_file":"g.txt"},"checkpoint":"c.ckpt","resume":true}`,
		`{"version":2,"topology":{"seed":1}}`,
		`{"topology":{"seed":1},"models":[1,1]}`,
		`{"topology":{"seed":1},"attack":"nope"}`,
		`{"topology":{"seed":1},"unknown":true}`,
		`{"topology":{"seed":1}} {}`,
		`{"topology":{"seed":1}}}`,
		`{"topology":{"seed":0},"deployments":[{"name":"x","spec":{"cps":[]}}]}`,
		`{"topology":{"seed":0},"deployments":[]}`,
		`{}`,
		`null`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := sbgp.ReadJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ReadJobSpec returned a spec Validate rejects: %v", err)
		}
		var loose sbgp.JobSpec
		if err := json.Unmarshal(data, &loose); err != nil || !reflect.DeepEqual(&loose, spec) {
			t.Fatalf("strict decode disagrees with the lenient decode (err %v)", err)
		}

		c := spec.Canonical()
		if !reflect.DeepEqual(c, c.Canonical()) {
			t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", c, c.Canonical())
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("canonical form does not validate: %v", err)
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := sbgp.ReadJobSpec(&buf)
		if err != nil || !reflect.DeepEqual(back, c) {
			t.Fatalf("canonical form does not round-trip (err %v)", err)
		}

		spec.Topology.GraphFile = ""
		spec.Topology.N = 60 + spec.Topology.N%140
		spec.Checkpoint, spec.Resume = "", false
		if len(spec.Deployments) > 6 {
			spec.Deployments = spec.Deployments[:6]
		}
		fp, err := planFingerprint(spec)
		cfp, cerr := planFingerprint(spec.Canonical())
		if (err == nil) != (cerr == nil) || fp != cfp {
			t.Fatalf("spec and its canonical form plan differently: %q (err %v) vs %q (err %v)", fp, err, cfp, cerr)
		}
	})
}

// planFingerprint builds the spec's simulation and returns its job
// layout's grid fingerprint.
func planFingerprint(spec *sbgp.JobSpec) (string, error) {
	sc, err := sbgp.FromJobSpec(spec)
	if err != nil {
		return "", err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return "", err
	}
	l, _, err := sim.JobShardPlan()
	if err != nil {
		return "", err
	}
	return l.Fingerprint, nil
}
