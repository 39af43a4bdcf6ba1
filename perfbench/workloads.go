package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

// table is one sweep a workload runs: its definition, and the spec JSON a
// client POSTs to the service for it.
type table struct {
	def  experiments.Definition
	body []byte
}

// workloadSpec is one benchmark input. Direct workloads call
// experiments.RunSpec, as `ibsim run` does; served workloads POST to an
// in-process serve.Server over loopback HTTP. A seed-fixed workload runs
// seeds 1-3 whatever the benchmark seed.
type workloadSpec struct {
	name      string
	served    bool
	seedFixed bool
	tables    []table
}

var workloadNames = []string{"paper-star", "fattree512-open", "served-faults"}

// loadWorkload builds the named workload. Spec files are read relative to
// the checkout root, the benchmark's working directory.
func loadWorkload(name string) (*workloadSpec, error) {
	switch name {
	case "paper-star":
		// The fig8 grid (five BSGs and one LSG on the 7-node star, BSG
		// payload 64 B to 4 KiB) with the bulk total added, so one table
		// holds both sides of the paper's latency/bandwidth trade-off.
		d, ok := experiments.Lookup("fig8")
		if !ok {
			return nil, fmt.Errorf("experiment fig8 is not registered")
		}
		s := d.Spec
		s.ID, s.Title = "paper-star", "LSG RTT and total BSG bandwidth vs BSG payload, five BSGs"
		s.Collect = append(append([]string(nil), s.Collect...), "bulk_total_gbps")
		return directWorkload(name, s)
	case "fattree512-open":
		// loadlatency's 512-host three-tier variant: 4 shards, eight
		// Poisson senders, loads 0.10-0.95 of the drain's wire rate.
		d, ok := experiments.Lookup("loadlatency")
		if !ok {
			return nil, fmt.Errorf("experiment loadlatency is not registered")
		}
		s := d.Spec
		s.Sweep = append([]experiments.Axis(nil), s.Sweep...)
		var keep []experiments.Variant
		for _, v := range s.Sweep[0].Variants {
			if v.Name == "fattree512" {
				keep = append(keep, v)
			}
		}
		if len(keep) != 1 {
			return nil, fmt.Errorf("loadlatency has no fattree512 variant")
		}
		s.Sweep[0].Variants = keep
		s.ID, s.Title = "fattree512-open", "Open-loop load-latency on the sharded 512-host three-tier fat-tree"
		return directWorkload(name, s)
	case "served-faults":
		// Seed-fixed: the loss spec's go-back-N work (and so its host time)
		// varies by a fifth between seeds, which would swamp the timings.
		w := &workloadSpec{name: name, served: true, seedFixed: true}
		for _, f := range []string{"fault_loss.json", "fault_flap.json"} {
			body, err := os.ReadFile(filepath.Join("specs", f))
			if err != nil {
				return nil, err
			}
			s, err := experiments.ParseSpec(body)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			w.tables = append(w.tables, table{def: experiments.DefinitionFor(s), body: body})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
}

// directWorkload wraps one spec; DefinitionFor gives the presentation the
// service would give the same spec, so a served replay matches RunSpec.
func directWorkload(name string, s experiments.Spec) (*workloadSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	body, err := s.MarshalIndent()
	if err != nil {
		return nil, err
	}
	return &workloadSpec{name: name, tables: []table{{def: experiments.DefinitionFor(s), body: body}}}, nil
}
