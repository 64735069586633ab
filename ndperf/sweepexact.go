package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/timebase"
)

const omegaPaper = 36 * timebase.Microsecond

var (
	// Parameter pools of the slotted kinds. Every point also draws a fresh
	// slot length, which changes the build-cache key but not the analysis.
	primes     = []int{11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
	diffOrders = []int{2, 3, 5, 7, 11, 13} // orders with a Singer difference set
)

// sweepExact runs exact-mode suites over fresh quiet-channel points: each
// op is one RunSuite(Exact) → WriteJSON over sweepPlan's eight kinds of
// point, every one a build-cache miss. No trial runs, so the op measures
// schedule construction, coverage analysis, prepare, finalize and encode.
type sweepExact struct {
	cfg  config
	ops  suiteOps
	gen  *pointGen
	next int // op index into the generator
}

func newSweepExact(cfg config) workload {
	return &sweepExact{cfg: cfg, ops: suiteOps{label: "sweep-exact"}, gen: newPointGen(cfg.seed)}
}

// pointGen draws fresh exact-mode points. Each parameter follows its own
// additive-recurrence (golden-ratio) sequence from a seeded start, so any
// prefix of the sequence covers the parameter ranges evenly: the cost mix
// of the first hundred ops is the same for every seed, which keeps the
// per-run medians steady, while the seed still moves every value.
type pointGen struct {
	seed  uint64
	seen  map[string]bool
	names int
}

func newPointGen(seed int64) *pointGen {
	return &pointGen{seed: uint64(seed), seen: map[string]bool{}}
}

// u is the i'th value of low-discrepancy stream k in [0, 1).
func (g *pointGen) u(k, i int) float64 {
	start := float64(mix64(g.seed, uint64(k))>>11) / (1 << 53)
	step := math.Sqrt(float64(primes[k%len(primes)])) // irrational increment
	v := start + float64(i)*(step-math.Floor(step))
	return v - math.Floor(v)
}

func logUniform(u, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, u)
}

// round6 keeps duty-cycles to six decimals; the set-up warm-up points use
// a seventh decimal so they can never recur in the timed grid.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// sweepPlan is the kind of each point in one op: three optimal points in
// three η bands (the band below 1% costs most), one asymmetric pair, and
// one of each slot-domain protocol.
var sweepPlan = []string{"optimal-lo", "optimal-mid", "optimal-hi", "asymmetric",
	"slot-disco", "slot-uconnect", "slot-searchlight", "slot-diffcode"}

// point returns the i'th fresh point of the given plan kind, bumping the
// draw until its protocol is one this process has never built.
func (g *pointGen) point(kind string, k, i int) engine.Scenario {
	for bump := 0; ; bump++ {
		u := g.u(k, i+bump*7919)
		v := g.u(k+len(sweepPlan), i+bump*7919)
		slotLen := timebase.Ticks(1000 + int(v*19000)) // 1–20 ms
		var p engine.ProtocolSpec
		switch kind {
		case "optimal-lo":
			p = engine.ProtocolSpec{Kind: "optimal", Eta: round6(logUniform(u, 0.005, 0.01))}
		case "optimal-mid":
			p = engine.ProtocolSpec{Kind: "optimal", Eta: round6(logUniform(u, 0.01, 0.02))}
		case "optimal-hi":
			p = engine.ProtocolSpec{Kind: "optimal", Eta: round6(logUniform(u, 0.02, 0.10))}
		case "asymmetric":
			p = engine.ProtocolSpec{Kind: "asymmetric", EtaE: round6(logUniform(u, 0.005, 0.10)), EtaF: round6(logUniform(v, 0.005, 0.10))}
		case "slot-disco":
			a := int(u * float64(len(primes)-1))
			b := a + 1 + int(v*float64(len(primes)-1-a))
			if b >= len(primes) {
				b = len(primes) - 1
			}
			p = engine.ProtocolSpec{Kind: kind, P1: primes[a], P2: primes[b], SlotLen: slotLen}
		case "slot-uconnect":
			p = engine.ProtocolSpec{Kind: kind, P: primes[int(u*float64(len(primes)))], SlotLen: slotLen}
		case "slot-searchlight":
			p = engine.ProtocolSpec{Kind: kind, T: 8 + int(u*40), SlotLen: slotLen}
		case "slot-diffcode":
			p = engine.ProtocolSpec{Kind: kind, Q: diffOrders[int(u*float64(len(diffOrders)))], SlotLen: slotLen}
		}
		p.Omega, p.Alpha = omegaPaper, 1
		key := fmt.Sprintf("%+v", p)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		g.names++
		return engine.Scenario{
			Name:       fmt.Sprintf("%s-%d", kind, g.names),
			Protocol:   p,
			Population: 2,
			Horizon:    engine.HorizonSpec{WorstMultiple: 3},
			Seed:       int64(mix64(g.seed, uint64(g.names)) >> 1),
			Exact:      true,
		}
	}
}

// opPoints is the i'th op's slice of points.
func (g *pointGen) opPoints(i int) []engine.Scenario {
	out := make([]engine.Scenario, len(sweepPlan))
	for k, kind := range sweepPlan {
		out[k] = g.point(kind, k, i)
	}
	return out
}

// warmupPoints are the set-up's one point per kind, at fixed parameters
// the timed grid cannot produce (a seventh η decimal, slot lengths below
// its 1 ms floor).
func warmupPoints() []engine.Scenario {
	mk := func(name string, p engine.ProtocolSpec) engine.Scenario {
		p.Omega, p.Alpha = omegaPaper, 1
		return engine.Scenario{Name: name, Protocol: p, Population: 2, Horizon: engine.HorizonSpec{WorstMultiple: 3}, Exact: true}
	}
	return []engine.Scenario{
		mk("warm-optimal", engine.ProtocolSpec{Kind: "optimal", Eta: 0.0060005}),
		mk("warm-asymmetric", engine.ProtocolSpec{Kind: "asymmetric", EtaE: 0.0100005, EtaF: 0.0300005}),
		mk("warm-slot-disco", engine.ProtocolSpec{Kind: "slot-disco", P1: 13, P2: 17, SlotLen: 999}),
		mk("warm-slot-uconnect", engine.ProtocolSpec{Kind: "slot-uconnect", P: 13, SlotLen: 999}),
		mk("warm-slot-searchlight", engine.ProtocolSpec{Kind: "slot-searchlight", T: 12, SlotLen: 999}),
		mk("warm-slot-diffcode", engine.ProtocolSpec{Kind: "slot-diffcode", Q: 5, SlotLen: 999}),
	}
}

func (w *sweepExact) setup() error {
	res, err := w.ops.run(warmupPoints(), engine.Options{Exact: true}, nil, 0)
	if err != nil {
		return err
	}
	_, err = checkBounds(res)
	return err
}

// checkBounds asserts the paper's theorem on every point: no protocol's
// exact worst case beats the fundamental bound (bound_ratio ≥ 1, with
// 1e-9 slack for float rounding), and the optimal construction attains it
// (within 1e-3). Every point must also have been answered exactly.
func checkBounds(res engine.SuiteResult) (float64, error) {
	for _, a := range res.Scenarios {
		switch {
		case !a.ExactMode || a.Trials != 0:
			return 0, fmt.Errorf("%s: not answered in exact mode (exact_mode=%t, trials=%d)", a.Scenario.Name, a.ExactMode, a.Trials)
		case !(a.BoundRatio >= 1-1e-9):
			return 0, fmt.Errorf("%s: bound_ratio %.9g < 1 — a schedule beat the bound", a.Scenario.Name, a.BoundRatio)
		case a.Scenario.Protocol.Kind == "optimal" && a.BoundRatio-1 > 1e-3:
			return 0, fmt.Errorf("%s: optimal construction at bound_ratio %.9g, want within 1e-3 of 1", a.Scenario.Name, a.BoundRatio)
		}
	}
	return float64(len(res.Scenarios)), nil
}

func (w *sweepExact) loop(deadline time.Time, tr *tracer) (*loopStats, error) {
	op := func(i int, tr *tracer) (engine.SuiteResult, error) {
		points := w.gen.opPoints(w.next)
		w.next++
		return w.ops.run(points, engine.Options{Exact: true}, tr, int64(i+1))
	}
	return runOps(deadline, tr, 3, "points", op, checkBounds), nil
}

// verify has nothing left to do: every op's points were checked in loop.
func (w *sweepExact) verify() error { return nil }

func (w *sweepExact) layers(m metrics) error {
	w.ops.layers(m)
	return errors.Join(layerPanel(w.cfg, m), serviceLayers(w.cfg, m))
}

func (w *sweepExact) close() {}
