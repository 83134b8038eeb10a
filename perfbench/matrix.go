package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"aaws/internal/core"
	"aaws/internal/fabric"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/wsrt"
)

// fingerprintPath is the committed reference for the seed-42, scale-1.0
// default matrix; every workload checks it through its own path.
const fingerprintPath = "examples/fabric/fingerprint.json"

// The paper's headline medians for base+psm over base on 4B4L.
const (
	paperSpeedup   = 1.10
	paperEnergyEff = 1.11
)

type fingerprintFile struct {
	System      string  `json:"system"`
	Seed        uint64  `json:"seed"`
	Scale       float64 `json:"scale"`
	Cells       int     `json:"cells"`
	Fingerprint string  `json:"fingerprint"`
}

func loadFingerprint() (fingerprintFile, error) {
	var f fingerprintFile
	buf, err := os.ReadFile(fingerprintPath)
	if err != nil {
		return f, fmt.Errorf("reading the reference fingerprint (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("parsing %s: %w", fingerprintPath, err)
	}
	if f.System != "4B4L" || f.Scale != 1 {
		return f, fmt.Errorf("%s is for %s at scale %g, want 4B4L at scale 1", fingerprintPath, f.System, f.Scale)
	}
	return f, nil
}

// defaultMatrix is the Figure 8 sweep on 4B4L at scale 1.0 — the 22 Table
// III kernels × 5 variants in the order core.Sweep builds it.
func defaultMatrix(seed uint64) []core.Spec {
	var specs []core.Spec
	for _, name := range kernels.Names() {
		for _, v := range wsrt.Variants {
			specs = append(specs, core.Spec{Kernel: name, System: core.Sys4B4L, Variant: v, Seed: seed, Scale: 1})
		}
	}
	return specs
}

// checkMatrix checks a default-matrix run at the reference seed, given as
// canonical cell bytes in matrix order, against the committed fingerprint,
// and records the simulator's distance from the paper's headline medians.
func (r *run) checkMatrix(cells [][]byte) {
	r.attempt()
	want, err := loadFingerprint()
	if err != nil {
		r.fail("fingerprint: %v", err)
		return
	}
	specs := defaultMatrix(want.Seed)
	if len(cells) != len(specs) || want.Cells != len(specs) {
		r.fail("fingerprint: %d cells returned, reference has %d, matrix has %d", len(cells), want.Cells, len(specs))
		return
	}
	if got := fabric.Fingerprint(cells); got != want.Fingerprint {
		r.fail("fingerprint %s, reference %s", got, want.Fingerprint)
		return
	}
	var rows []core.Figure8Row
	for i, spec := range specs {
		out, err := jobs.DecodeOutcome(cells[i])
		if err != nil {
			r.fail("fingerprint: decoding cell %d: %v", i, err)
			return
		}
		if i%len(wsrt.Variants) == 0 {
			rows = append(rows, core.Figure8Row{Kernel: spec.Kernel, System: spec.System})
		}
		row := &rows[len(rows)-1]
		row.Results = append(row.Results, core.VariantResult{
			Variant: spec.Variant, Time: out.Report.ExecTime, Energy: out.Report.TotalEnergy,
		})
	}
	s := core.Summarize(rows, wsrt.BasePSM)
	r.layer["paper.speedup_err_pct"] = math.Abs(s.MedianSpeedup-paperSpeedup) / paperSpeedup * 100
	r.layer["paper.energyeff_err_pct"] = math.Abs(s.MedianEnergyEff-paperEnergyEff) / paperEnergyEff * 100
}

// localMatrixCells runs the reference matrix in process through core.Sweep
// and returns its canonical cell bytes in matrix order.
func localMatrixCells() ([][]byte, error) {
	want, err := loadFingerprint()
	if err != nil {
		return nil, err
	}
	var cells [][]byte
	opt := core.DefaultSweep(core.Sys4B4L)
	opt.Seed = want.Seed
	opt.RunAll = func(in []core.Spec) ([]core.Result, error) {
		results, err := core.RunBatch(in)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			b, err := cellBytes(in[i], res)
			if err != nil {
				return nil, err
			}
			cells = append(cells, b)
		}
		return results, nil
	}
	if _, err := core.Sweep(opt); err != nil {
		return nil, err
	}
	return cells, nil
}

// childFingerprint runs the reference matrix the way the aaws-sweep CLI
// does, in a fresh process, and prints its cell bytes.
func childFingerprint() error {
	cells, err := localMatrixCells()
	if err != nil {
		return err
	}
	buf, err := json.Marshal(cells)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}
