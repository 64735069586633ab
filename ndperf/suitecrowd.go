package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
)

// suiteCrowdTrials is the fixed trial override of every scenario in the
// suite-crowd op. It keeps one op near 100 ms on two workers, so a 20 s run
// holds well over the 100 ops a p90 needs, while most of the op's CPU stays
// in the simulation kernel.
const suiteCrowdTrials = 20

// suiteCrowd runs the examples and multichannel-group suites (busy-network
// crowds with collisions, churn, the BLE 3-channel crowd and the pair
// presets) through RunSuite and WriteJSON. Every op is the same work, so
// every op's stripped document must be byte-identical to the first.
type suiteCrowd struct {
	cfg       config
	ops       suiteOps
	scenarios []engine.Scenario
	first     []byte // stripped document of the set-up run
}

func newSuiteCrowd(cfg config) workload {
	return &suiteCrowd{cfg: cfg, ops: suiteOps{label: "suite-crowd"}}
}

func (w *suiteCrowd) setup() error {
	var scs []engine.Scenario
	for _, name := range []string{"examples", "multichannel-group"} {
		s, err := engine.Suite(name)
		if err != nil {
			return err
		}
		scs = append(scs, s...)
	}
	// Scenario seeds come from the workload seed, so each seed runs its
	// own random streams over the same crowd shapes.
	for i := range scs {
		scs[i].Seed = int64(mix64(uint64(w.cfg.seed), uint64(i)) >> 1)
	}
	w.scenarios = scs
	// The first run builds every schedule cold and fills the build cache.
	res, err := w.op(0, nil)
	if err != nil {
		return err
	}
	w.first, err = strippedDoc(res)
	return err
}

func (w *suiteCrowd) op(i int, tr *tracer) (engine.SuiteResult, error) {
	return w.ops.run(w.scenarios, engine.Options{Trials: suiteCrowdTrials}, tr, int64(i+1))
}

func (w *suiteCrowd) check(res engine.SuiteResult) (float64, error) {
	doc, err := strippedDoc(res)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(doc, w.first) {
		return 0, fmt.Errorf("document differs from the set-up run's")
	}
	return float64(res.Runtime.Trials), nil
}

func (w *suiteCrowd) loop(deadline time.Time, tr *tracer) (*loopStats, error) {
	return runOps(deadline, tr, 3, "trials", w.op, w.check), nil
}

// verify checks the determinism contract once per run: a one-worker run
// of the same suite must produce the same stripped document.
func (w *suiteCrowd) verify() error {
	aggs, err := engine.RunSuite(w.scenarios, engine.Options{Workers: 1, Trials: suiteCrowdTrials})
	if err != nil {
		return err
	}
	doc, err := strippedDoc(engine.SuiteResult{Suite: w.ops.label, Scenarios: aggs})
	if err != nil {
		return err
	}
	if !bytes.Equal(doc, w.first) {
		return fmt.Errorf("suite-crowd: 1-worker document differs from the %d-worker one", engineWorkers)
	}
	return nil
}

func (w *suiteCrowd) layers(m metrics) error {
	w.ops.layers(m)
	return errors.Join(layerPanel(w.cfg, m), serviceLayers(w.cfg, m))
}

func (w *suiteCrowd) close() {}
