package core_test

// The elastic-off / legacy-topology identity gate. The elastic scheduler and
// the N-way topology generalization are both strictly additive: a spec that
// uses neither must produce byte-identical canonical outcomes — and therefore
// the same content hashes and the same committed matrix fingerprint — as the
// code before those features existed. These tests pin that contract from
// outside the package, through the same jobs/fabric encoding path the
// services use.

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/wsrt"
)

// defaultMatrix returns the full default sweep matrix (every registered
// non-extension kernel × every variant, 4B4L, seed 42, scale 1) in the
// canonical kernel-outer, variant-inner order used by SweepRequest.Specs.
func defaultMatrix() []core.Spec {
	var specs []core.Spec
	for _, kname := range kernels.Names() {
		for _, v := range wsrt.Variants {
			specs = append(specs, core.Spec{
				Kernel: kname, System: core.Sys4B4L, Variant: v,
				Seed: 42, Scale: 1,
			})
		}
	}
	return specs
}

// TestElasticOffIdentityFingerprint recomputes the committed matrix
// fingerprint from scratch. If the elastic or topology work had perturbed
// any legacy code path — scheduling, accounting, spec hashing, or result
// encoding — the SHA-256 over all 110 canonical cells would move.
func TestElasticOffIdentityFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("full default matrix")
	}
	blob, err := os.ReadFile("../../examples/fabric/fingerprint.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Cells       int    `json:"cells"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}

	specs := defaultMatrix()
	if len(specs) != want.Cells {
		t.Fatalf("default matrix has %d cells, committed fingerprint covers %d", len(specs), want.Cells)
	}
	results, err := core.RunBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([][]byte, len(results))
	for i, res := range results {
		if res.Report.ElasticParks != 0 || res.Report.ElasticWakes != 0 {
			t.Fatalf("cell %d (%s/%v): elastic counters nonzero in a legacy run", i, specs[i].Kernel, specs[i].Variant)
		}
		hash, err := jobs.SpecHash(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		cells[i], err = jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := fabric.Fingerprint(cells); got != want.Fingerprint {
		t.Errorf("recomputed matrix fingerprint %s != committed %s", got, want.Fingerprint)
	}
}

// TestTwoClassTopologyByteIdentity: a 2-entry Topology that resolves to
// exactly the kernel's big.LITTLE pair resolves to the same class list as
// the System spec, so its canonical outcome bytes (spec hash aside — the
// specs legitimately differ) must equal the System spec's byte for byte.
func TestTwoClassTopologyByteIdentity(t *testing.T) {
	cases := []struct {
		sys  core.System
		topo []core.CoreClass
	}{
		{core.Sys4B4L, []core.CoreClass{{Count: 4}, {Count: 4}}},
		{core.Sys1B7L, []core.CoreClass{{Count: 1}, {Count: 7}}},
	}
	for _, tc := range cases {
		for _, v := range []wsrt.Variant{wsrt.Base, wsrt.BasePSM} {
			legacy := core.DefaultSpec("cilksort", tc.sys, v)
			legacy.Scale = 0.5
			topo := legacy
			topo.Topology = tc.topo
			rl, err := core.Run(legacy)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := core.Run(topo)
			if err != nil {
				t.Fatal(err)
			}
			// Outcome embeds the spec hash; blank it on both sides so the
			// comparison covers exactly the simulated result.
			bl, err := jobs.CanonicalJSON(jobs.NewOutcome("", rl))
			if err != nil {
				t.Fatal(err)
			}
			bt, err := jobs.CanonicalJSON(jobs.NewOutcome("", rt))
			if err != nil {
				t.Fatal(err)
			}
			if string(bl) != string(bt) {
				t.Errorf("%v/%v: explicit 2-class topology diverged from the System spec:\nsystem: %s\ntopo:   %s",
					tc.sys, v, bl, bt)
			}
		}
	}
}

// FuzzTopologyDecode drives arbitrary strings through the topology parser
// and, for the ones that validate, checks the spec-hash contract: the hash
// survives a JSON marshal/unmarshal round trip, and the CLI rendering parses
// back to the identical class list.
func FuzzTopologyDecode(f *testing.F) {
	f.Add("4,4")
	f.Add("1,7")
	f.Add("1x4/3,2x2.5/1.8,4")
	f.Add("2x2/2,2")
	f.Add("")
	f.Add("0")
	f.Add("-1,4")
	f.Add("1x/,2")
	f.Add("8x1e309/2")
	f.Add("1xNaN/1,1")
	f.Add("1x3,1x2,1x1.5,1")
	f.Add(" 4 , 4 ")
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := core.ParseTopology(s)
		if err != nil {
			return
		}
		spec := core.DefaultSpec("cilksort", core.Sys4B4L, wsrt.Base)
		spec.NBig, spec.NLit = 0, 0
		spec.Topology = topo
		if spec.Validate() != nil {
			return
		}
		h1, err := jobs.SpecHash(spec)
		if err != nil {
			t.Fatalf("valid spec failed to hash: %v", err)
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec failed to marshal: %v", err)
		}
		var back core.Spec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("marshal round trip failed to decode: %v", err)
		}
		h2, err := jobs.SpecHash(back)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Errorf("spec hash changed across JSON round trip: %s != %s (topology %q)", h1, h2, s)
		}
		reparsed, err := core.ParseTopology(core.FormatTopology(topo))
		if err != nil {
			t.Fatalf("FormatTopology output %q does not parse: %v", core.FormatTopology(topo), err)
		}
		if !reflect.DeepEqual(reparsed, topo) {
			t.Errorf("format/parse round trip changed the topology: %+v != %+v", reparsed, topo)
		}
	})
}
