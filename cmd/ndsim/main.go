// Command ndsim analyzes and simulates neighbor-discovery protocols.
//
// It builds a protocol schedule, measures its exact worst-case discovery
// latency with the coverage engine, and compares it against the
// fundamental bound.
//
// Usage:
//
//	ndsim -proto optimal  -eta 0.02
//	ndsim -proto disco    -p1 37 -p2 43 -slot 5000
//	ndsim -proto diffcode -q 7 -slot 5000
//	ndsim -proto uconnect -p 11 -slot 5000
//	ndsim -proto ble      -preset balanced
//
// Group simulations over a collision channel run on the scenario engine:
// a spec with population > 2 executes the crowd workload in parallel.
// For example, 10 optimal devices at η = 5%, 50 trials, collisions on
// (run with `ndscen -spec group.json`):
//
//	[{"name": "optimal-group", "population": 10, "trials": 50, "seed": 1,
//	  "protocol": {"kind": "optimal", "omega": 36, "alpha": 1, "eta": 0.05},
//	  "horizon": {"worst_multiple": 10}, "channel": {"collisions": true}}]
//
// Add "jitter": <µs> to "channel" for beacon jitter.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

func main() {
	var (
		proto  = flag.String("proto", "optimal", "protocol: optimal|disco|diffcode|uconnect|searchlight|ble")
		omega  = flag.Int64("omega", 36, "packet airtime ω in µs")
		alpha  = flag.Float64("alpha", 1.0, "power ratio α")
		eta    = flag.Float64("eta", 0.02, "duty-cycle (optimal)")
		p1     = flag.Int("p1", 37, "Disco prime 1")
		p2     = flag.Int("p2", 43, "Disco prime 2")
		pp     = flag.Int("p", 11, "U-Connect prime")
		q      = flag.Int("q", 7, "Diffcode order")
		tt     = flag.Int("t", 16, "Searchlight period (slots)")
		slot   = flag.Int64("slot", 5000, "slot length in µs (slotted protocols)")
		preset = flag.String("preset", "balanced", "BLE preset: fast|balanced|lowpower")
	)
	flag.Parse()

	p := core.Params{Omega: timebase.Ticks(*omega), Alpha: *alpha}
	dev, name, bound, err := buildDevice(p, *proto, *eta, *p1, *p2, *pp, *q, *tt,
		timebase.Ticks(*slot), *preset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("Protocol: %s\n", name)
	fmt.Printf("  β = %.5g (channel utilization), γ = %.5g, η = %.5g\n",
		dev.B.Beta(), dev.C.Gamma(), dev.Eta(p.Alpha))

	ana, err := coverage.Analyze(dev.B, dev.C, coverage.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndsim: analyze: %v\n", err)
		os.Exit(1)
	}
	if !ana.Deterministic {
		fmt.Printf("  NOT deterministic: %.4g%% of offsets covered\n", ana.CoveredFraction*100)
	} else {
		fmt.Printf("  worst-case latency: %v (mean %.6g s)\n",
			ana.WorstLatency, ana.MeanLatency/float64(timebase.Second))
		fmt.Printf("  minimal covering prefix M = %d beacons; disjoint=%v redundant=%v\n",
			ana.MinimalPrefix, ana.Disjoint, ana.Redundant)
		if bound > 0 {
			fmt.Printf("  fundamental bound at achieved η: %.6g s → optimality ratio %.4g\n",
				bound/float64(timebase.Second), core.OptimalityRatio(float64(ana.WorstLatency), bound))
		}
	}
}

func buildDevice(p core.Params, proto string, eta float64, p1, p2, pp, q, t int,
	slot timebase.Ticks, preset string) (schedule.Device, string, float64, error) {
	switch proto {
	case "optimal":
		pair, err := optimal.NewSymmetric(p.Omega, p.Alpha, eta)
		if err != nil {
			return schedule.Device{}, "", 0, err
		}
		etaAch := pair.E.Eta(p.Alpha)
		return pair.E, fmt.Sprintf("optimal symmetric (η=%g)", eta), p.Symmetric(etaAch), nil
	case "disco":
		s, err := protocols.NewDisco(p1, p2, slot, p.Omega)
		if err != nil {
			return schedule.Device{}, "", 0, err
		}
		dev, err := s.DeviceFullDuplex()
		return dev, s.Name, p.Symmetric(s.Eta(p.Alpha)), err
	case "diffcode":
		s, err := protocols.NewDiffcode(q, slot, p.Omega)
		if err != nil {
			return schedule.Device{}, "", 0, err
		}
		dev, err := s.DeviceFullDuplex()
		return dev, s.Name, p.Symmetric(s.Eta(p.Alpha)), err
	case "uconnect":
		s, err := protocols.NewUConnect(pp, slot, p.Omega)
		if err != nil {
			return schedule.Device{}, "", 0, err
		}
		dev, err := s.DeviceFullDuplex()
		return dev, s.Name, p.Symmetric(s.Eta(p.Alpha)), err
	case "searchlight":
		s, err := protocols.NewSearchlight(t, true, slot, p.Omega)
		if err != nil {
			return schedule.Device{}, "", 0, err
		}
		dev, err := s.DeviceFullDuplex()
		return dev, s.Name, p.Symmetric(s.Eta(p.Alpha)), err
	case "ble":
		var cfg protocols.PI
		switch preset {
		case "fast":
			cfg = protocols.BLEFastAdv
		case "balanced":
			cfg = protocols.BLEBalanced
		case "lowpower":
			cfg = protocols.BLELowPower
		default:
			return schedule.Device{}, "", 0, fmt.Errorf("unknown BLE preset %q", preset)
		}
		dev, err := cfg.Device()
		return dev, cfg.Name, p.Symmetric(cfg.Eta(p.Alpha)), err
	default:
		return schedule.Device{}, "", 0, fmt.Errorf("unknown protocol %q", proto)
	}
}
