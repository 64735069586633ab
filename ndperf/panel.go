package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/coverage"
	"repro/internal/engine"
	"repro/internal/multichannel"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// Fixed trial counts of the kernel replay. They are counts, not a time
// budget, so the replay's tx/collision/alloc counts repeat exactly for a
// seed.
const (
	replayGroupTrials   = 60
	replayChurnTrials   = 60
	replayMCGroupTrials = 40
	replayPairTrials    = 400
)

// layerPanel measures the layers below the engine from outside, on one
// goroutine: the simulation kernel, the engine's per-trial overhead over
// it, and the exact analyses.
func layerPanel(cfg config, m metrics) error {
	var errs []error
	if err := simReplay(cfg.seed, m); err != nil {
		errs = append(errs, fmt.Errorf("kernel replay: %w", err))
	}
	if err := engineOverhead(cfg.seed, m); err != nil {
		errs = append(errs, fmt.Errorf("engine overhead: %w", err))
	}
	if err := analysisPanel(cfg.seed, m); err != nil {
		errs = append(errs, fmt.Errorf("analysis panel: %w", err))
	}
	return errors.Join(errs...)
}

// presetFacts runs a preset for one trial to learn the horizon and exact
// worst case the engine resolves for it.
func presetFacts(name string) (engine.Scenario, engine.Aggregate, error) {
	sc, err := engine.Preset(name)
	if err != nil {
		return sc, engine.Aggregate{}, err
	}
	agg, err := engine.RunScenario(sc, engine.Options{Workers: 1, Trials: 1})
	return sc, agg, err
}

// simReplay replays suite-crowd's kernel workloads through the public
// *Scratch primitives on devices built with the public constructors:
// busynetwork-jitter (group), churn-busy (churn), ble3-crowd (multi-channel
// group) and quickstart (pair).
func simReplay(seed int64, m metrics) error {
	busy, busyAgg, err := presetFacts("busynetwork-jitter")
	if err != nil {
		return err
	}
	churn, churnAgg, err := presetFacts("churn-busy")
	if err != nil {
		return err
	}
	crowd, crowdAgg, err := presetFacts("ble3-crowd")
	if err != nil {
		return err
	}
	_, pairAgg, err := presetFacts("quickstart")
	if err != nil {
		return err
	}
	dev := func(eta float64) (optimal.Pair, error) { return optimal.NewSymmetric(omegaPaper, 1, eta) }
	busyPair, err := dev(busy.Protocol.Eta)
	if err != nil {
		return err
	}
	churnPair, err := dev(churn.Protocol.Eta)
	if err != nil {
		return err
	}
	quick, err := dev(0.02)
	if err != nil {
		return err
	}
	fast := protocols.BLEFastAdv
	mc := multichannel.Config{Ta: fast.Ta, Omega: crowd.Protocol.Omega, IFS: 150 * timebase.Microsecond,
		Ts: fast.Ts, Ds: fast.Ds, Channels: 3}

	scr := sim.NewScratch()
	base := int64(mix64(uint64(seed), 0x73696d) >> 1)
	var tx, coll, allocs, trials int64
	// timeTrials runs n trials of f after one untimed warm-up trial and
	// returns µs per trial; mallocs are counted over the timed trials.
	timeTrials := func(n int, f func(rng int64) error) (float64, error) {
		if err := f(base - 1); err != nil {
			return 0, err
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(base + int64(i)); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocs += int64(ms1.Mallocs - ms0.Mallocs)
		trials += int64(n)
		return float64(d) / 1e3 / float64(n), nil
	}

	groupCfg := sim.Config{Horizon: busyAgg.Horizon, Collisions: true, HalfDuplex: true, Jitter: busy.Channel.Jitter}
	groupUS, err := timeTrials(replayGroupTrials, func(s int64) error {
		r, err := sim.GroupTrialScratch(busyPair.E, busy.Population, groupCfg, scr.Rand(s), scr)
		if s >= base {
			tx += int64(r.Transmissions)
			coll += int64(r.Collided)
		}
		return err
	})
	if err != nil {
		return err
	}
	churnCfg := sim.Config{Horizon: churnAgg.Horizon, Collisions: true, HalfDuplex: true, Jitter: churn.Channel.Jitter}
	stay := timebase.Ticks(churn.Churn.StayWorstMultiple * float64(churnAgg.ExactWorst))
	churnUS, err := timeTrials(replayChurnTrials, func(s int64) error {
		_, _, err := sim.ChurnTrialScratch(churnPair.E, churn.Population, stay, churnCfg, scr.Rand(s), scr)
		return err
	})
	if err != nil {
		return err
	}
	mcCfg := sim.Config{Horizon: crowdAgg.Horizon, Collisions: true, HalfDuplex: true}
	mcUS, err := timeTrials(replayMCGroupTrials, func(s int64) error {
		_, err := sim.MultiChannelGroupTrialScratch(mc, crowd.Population, mcCfg, scr.Rand(s), scr)
		return err
	})
	if err != nil {
		return err
	}
	pairCfg := sim.Config{Horizon: pairAgg.Horizon}
	pairUS, err := timeTrials(replayPairTrials, func(s int64) error {
		_, _, err := sim.PairTrialScratch(schedule.Device{B: quick.E.B}, schedule.Device{C: quick.F.C}, pairCfg, scr.Rand(s), scr)
		return err
	})
	if err != nil {
		return err
	}
	m.set("sim.group.us_per_trial", groupUS, "us", replayGroupTrials)
	m.set("sim.churn.us_per_trial", churnUS, "us", replayChurnTrials)
	m.set("sim.mcgroup.us_per_trial", mcUS, "us", replayMCGroupTrials)
	m.set("sim.pair.us_per_trial", pairUS, "us", replayPairTrials)
	m.set("sim.group.tx_per_trial", float64(tx)/replayGroupTrials, "count", replayGroupTrials)
	m.set("sim.group.collided_ratio", ratio(coll, tx), "ratio", replayGroupTrials)
	m.set("sim.allocs_per_trial", float64(allocs)/float64(trials), "count", int(trials))
	return nil
}

// engineOverhead is the engine's own per-trial cost (runTrial,
// accumulation, finalize) on busynetwork-jitter: RunScenario on one worker
// minus a kernel replay of the very same trials. The replay derives each
// trial's seed from Scenario.Hash as the engine documents it, so both
// sides do identical kernel work. Short rounds alternate the two sides so
// drifting host speed cancels, and the median round is reported.
func engineOverhead(seed int64, m metrics) error {
	const rounds, trials = 15, 10
	sc, agg, err := presetFacts("busynetwork-jitter")
	if err != nil {
		return err
	}
	sc.Seed = int64(mix64(uint64(seed), 0x656e67) >> 1)
	pair, err := optimal.NewSymmetric(sc.Protocol.Omega, 1, sc.Protocol.Eta)
	if err != nil {
		return err
	}
	cfg := sim.Config{Horizon: agg.Horizon, Collisions: true, HalfDuplex: true, Jitter: sc.Channel.Jitter}
	hash := sc.Hash()
	scr := sim.NewScratch()
	opt := engine.Options{Workers: 1, Trials: trials}
	var diffs []float64
	for r := -1; r < rounds; r++ { // round -1 warms both sides
		t0 := time.Now()
		for i := 0; i < trials; i++ {
			trialSeed := int64(mix64(hash, uint64(i)) >> 1)
			if _, err := sim.GroupTrialScratch(pair.E, sc.Population, cfg, scr.Rand(trialSeed), scr); err != nil {
				return err
			}
		}
		kernel := time.Since(t0)
		t0 = time.Now()
		if _, err := engine.RunScenario(sc, opt); err != nil {
			return err
		}
		if r >= 0 {
			diffs = append(diffs, float64(time.Since(t0)-kernel)/1e3/trials)
		}
	}
	m.set("engine.overhead_us_per_trial", median(diffs), "us", rounds)
	return nil
}

// analysisPanel times single fresh-key exact points of each analysis
// family, and the coverage analysis on its own. The η values carry a
// seventh decimal, so no workload's points can have built them before.
func analysisPanel(seed int64, m metrics) error {
	g := newPointGen(seed ^ 0x616e61)
	const reps = 5
	var allocBytes uint64
	points := 0
	timePoint := func(p engine.ProtocolSpec) (float64, error) {
		p.Omega, p.Alpha = omegaPaper, 1
		sc := engine.Scenario{Name: "panel", Protocol: p, Population: 2, Horizon: engine.HorizonSpec{WorstMultiple: 3}, Exact: true}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		_, err := engine.RunScenario(sc, engine.Options{Workers: 1})
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		points++
		return ms(d), err
	}
	var opt, asym, slot []float64
	for i := 0; i < reps; i++ {
		eta := round6(logUniform(g.u(0, i), 0.01, 0.03)) + 5e-7
		d, err := timePoint(engine.ProtocolSpec{Kind: "optimal", Eta: eta})
		if err != nil {
			return err
		}
		opt = append(opt, d)
		d, err = timePoint(engine.ProtocolSpec{Kind: "asymmetric", EtaE: eta, EtaF: round6(logUniform(g.u(1, i), 0.02, 0.08)) + 5e-7})
		if err != nil {
			return err
		}
		asym = append(asym, d)
		d, err = timePoint(engine.ProtocolSpec{Kind: "slot-disco", P1: 23, P2: 29, SlotLen: timebase.Ticks(500 + i)})
		if err != nil {
			return err
		}
		slot = append(slot, d)
	}
	m.set("analysis.optimal.ms_per_point", median(opt), "ms", reps)
	m.set("analysis.asymmetric.ms_per_point", median(asym), "ms", reps)
	m.set("analysis.slot.ms_per_point", median(slot), "ms", reps)
	m.set("analysis.alloc_kb_per_point", float64(allocBytes)/1024/float64(points), "KiB", points)

	pair, err := optimal.NewSymmetric(omegaPaper, 1, 0.02)
	if err != nil {
		return err
	}
	var calls []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := coverage.Analyze(pair.E.B, pair.F.C, coverage.Options{}); err != nil {
			return err
		}
		calls = append(calls, ms(time.Since(t0)))
	}
	m.set("analysis.coverage.ms_per_call", median(calls), "ms", reps)
	return nil
}

// reportMetrics times report encoding of the popular documents ndd-mix
// serves: the Figure 7 suite (WriteJSON) and the adaptive η trace
// (WriteAdaptiveJSON).
func reportMetrics(m metrics) error {
	suite, err := engine.Suite("paper-fig7")
	if err != nil {
		return err
	}
	aggs, err := engine.RunSuite(suite, engine.Options{Workers: engineWorkers})
	if err != nil {
		return err
	}
	ap, err := engine.AdaptivePreset("adaptive-eta")
	if err != nil {
		return err
	}
	ad, err := engine.RunAdaptive(ap, engine.Options{Workers: engineWorkers})
	if err != nil {
		return err
	}
	const reps = 21
	var enc []float64
	var kb float64
	for i := 0; i < reps; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := engine.WriteJSON(&buf, engine.SuiteResult{Suite: "paper-fig7", Scenarios: aggs}); err != nil {
			return err
		}
		if err := engine.WriteAdaptiveJSON(&buf, ad); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t0)))
		kb = float64(buf.Len()) / 1024
	}
	m.set("report.encode_ms", median(enc), "ms", reps)
	m.set("report.kb", kb, "KiB", reps)
	return nil
}
