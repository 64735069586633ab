package eval

import (
	"math"
	"strings"
	"testing"
)

func TestRunTable1FormulaRelations(t *testing.T) {
	res, err := RunTable1(StdParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		// Table 1 exact relations at every operating point.
		if rel(row.Diffcodes, row.Fundamental) > 1e-9 {
			t.Errorf("η=%v: Diffcodes %v != fundamental %v", row.Eta, row.Diffcodes, row.Fundamental)
		}
		if rel(row.Searchlight, 2*row.Diffcodes) > 1e-9 {
			t.Errorf("η=%v: Searchlight != 2× Diffcodes", row.Eta)
		}
		if rel(row.Disco, 8*row.Diffcodes) > 1e-9 {
			t.Errorf("η=%v: Disco != 8× Diffcodes", row.Eta)
		}
		if !(row.UConnect > row.Diffcodes && row.UConnect < row.Disco) {
			t.Errorf("η=%v: U-Connect %v out of order", row.Eta, row.UConnect)
		}
	}
}

func TestRunTable1MeasuredShape(t *testing.T) {
	res, err := RunTable1(StdParams)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Validation{}
	for _, v := range res.Validations {
		byName[v.Name] = v
		// Nothing beats the fundamental slotted bound.
		if v.OptimalityVsEq21 < 0.99 {
			t.Errorf("%s: measured below Eq 21 (%v) — impossible", v.Name, v.OptimalityVsEq21)
		}
		// Every protocol meets its own slot-count guarantee (+1 slot of
		// phase slack).
		if float64(v.Measured) > float64(v.SlotBound)*1.1+1000 {
			t.Errorf("%s: measured %v exceeds slot bound %v", v.Name, v.Measured, v.SlotBound)
		}
	}
	// Shape claim of Table 1: diffcodes closest to optimal, Disco worst.
	dc := byName["Diffcode(q=5)"]
	disco := byName["Disco(5,7)"]
	sl := byName["Searchlight(8)"]
	if !(dc.OptimalityVsEq21 < sl.OptimalityVsEq21) {
		t.Errorf("Diffcodes (%v) should beat Searchlight (%v)",
			dc.OptimalityVsEq21, sl.OptimalityVsEq21)
	}
	if !(sl.OptimalityVsEq21 < disco.OptimalityVsEq21) {
		t.Errorf("Searchlight (%v) should beat Disco (%v)",
			sl.OptimalityVsEq21, disco.OptimalityVsEq21)
	}
	// Under the single-packet model the Table 1 factors reproduce:
	// Diffcodes ≈ 1×, Searchlight ≈ 2×, Disco well above both.
	if dc.OptimalityVsEq21Single > 1.2 {
		t.Errorf("Diffcodes single-packet ratio %v, want ≈ 1 (Table 1: optimal)",
			dc.OptimalityVsEq21Single)
	}
	if sl.OptimalityVsEq21Single < 1.5 || sl.OptimalityVsEq21Single > 2.3 {
		t.Errorf("Searchlight single-packet ratio %v, want ≈ 2 (Table 1 factor)",
			sl.OptimalityVsEq21Single)
	}
	if disco.OptimalityVsEq21Single < 2.5 {
		t.Errorf("Disco single-packet ratio %v, want ≫ 2 (Table 1 factor 8 at balanced primes)",
			disco.OptimalityVsEq21Single)
	}
}

func TestRunFigure6Invariants(t *testing.T) {
	res := RunFigure6(StdParams)
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	fourAlphaOmega := 4 * StdParams.Alpha * float64(StdParams.Omega)
	for _, pt := range res.Points {
		// Theorem 5.7 invariant: L·ηE·ηF = 4αω exactly, for every
		// asymmetry — the sense in which asymmetry is free.
		if rel(pt.LTimesProduct, fourAlphaOmega) > 1e-9 {
			t.Errorf("sum=%v r=%v: L·ηE·ηF = %v, want %v", pt.Sum, pt.Ratio,
				pt.LTimesProduct, fourAlphaOmega)
		}
		// And the plotted quantity sits exactly penalty(r) above the
		// symmetric curve 16αω/s.
		sym := 16 * StdParams.Alpha * float64(StdParams.Omega) / pt.Sum
		if rel(pt.LTimesSum, sym*res.PenaltyFactor(pt.Ratio)) > 1e-9 {
			t.Errorf("sum=%v r=%v: L·sum = %v, want %v×%v", pt.Sum, pt.Ratio,
				pt.LTimesSum, sym, res.PenaltyFactor(pt.Ratio))
		}
	}
	// r=1 must coincide with the symmetric bound (penalty exactly 1).
	if res.PenaltyFactor(1) != 1 {
		t.Errorf("penalty(1) = %v", res.PenaltyFactor(1))
	}
	if math.Abs(res.PenaltyFactor(2)-1.125) > 1e-12 {
		t.Errorf("penalty(2) = %v, want 1.125", res.PenaltyFactor(2))
	}
}

func TestRunFigure7Shape(t *testing.T) {
	res := RunFigure7(StdParams)
	if len(res.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		if s.Crossover <= 0 || math.IsNaN(s.BetaMax) {
			t.Fatalf("S=%d: bad series meta %+v", s.S, s)
		}
		for i, eta := range s.Etas {
			if math.IsNaN(res.Unconstrained[i]) {
				continue
			}
			if eta <= s.Crossover {
				if rel(s.Latency[i], res.Unconstrained[i]) > 1e-9 {
					t.Errorf("S=%d η=%v: constrained bound differs below crossover", s.S, eta)
				}
			} else if s.Latency[i] < res.Unconstrained[i] {
				t.Errorf("S=%d η=%v: constrained bound below unconstrained", s.S, eta)
			}
		}
	}
	// The paper: "deteriorated by up to two orders of magnitude".
	last := len(res.Etas) - 1
	s1000 := res.Series[2]
	if ratio := s1000.Latency[last] / res.Unconstrained[last]; ratio < 100 {
		t.Errorf("S=1000 degradation at η≈1: ×%v, want ≥ 100", ratio)
	}
	// Crossovers shrink with S.
	if !(res.Series[0].Crossover > res.Series[1].Crossover &&
		res.Series[1].Crossover > res.Series[2].Crossover) {
		t.Error("crossovers not decreasing in S")
	}
}

func TestRunSlottedAlphaMinima(t *testing.T) {
	res := RunSlottedAlpha(36)
	var at1, atHalf SlottedAlphaRow
	for _, row := range res.Rows {
		if row.Alpha == 1 {
			at1 = row
		}
		if row.Alpha == 0.5 {
			atHalf = row
		}
		// Neither limit ever dips below the fundamental bound.
		if row.ZhengRatio < 1-1e-9 || row.CodeRatio < 1-1e-9 {
			t.Errorf("α=%v: ratio below 1: %+v", row.Alpha, row)
		}
	}
	if math.Abs(at1.ZhengRatio-1) > 1e-9 {
		t.Errorf("Eq 18 at α=1: ratio %v, want 1", at1.ZhengRatio)
	}
	if math.Abs(atHalf.CodeRatio-1) > 1e-9 {
		t.Errorf("Eq 19 at α=0.5: ratio %v, want 1", atHalf.CodeRatio)
	}
}

func TestRunAppendixBRegime(t *testing.T) {
	res, err := RunAppendixB(StdParams)
	if err != nil {
		t.Fatal(err)
	}
	// The fractional solution must land in the paper's regime: ⌈R⌉ = 3,
	// β ≈ 2 %, L′ within a few tens of ms of 0.1583 s.
	r := res.Fractional.Redundancy()
	if int(math.Ceil(r)) != res.PaperQ {
		t.Errorf("⌈R⌉ = %v, paper says Q = %d", math.Ceil(r), res.PaperQ)
	}
	if math.Abs(res.Fractional.Beta-res.PaperBeta) > 0.006 {
		t.Errorf("β = %v, paper says %v", res.Fractional.Beta, res.PaperBeta)
	}
	if math.Abs(res.Fractional.Latency/1e6-res.PaperLatency) > 0.01 {
		t.Errorf("L′ = %v s, paper says %v s", res.Fractional.Latency/1e6, res.PaperLatency)
	}
}

func TestRunAchievabilityAllTight(t *testing.T) {
	res, err := RunAchievability(StdParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 6 {
		t.Fatalf("expected ≥ 6 achievability rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.IsNaN(row.Ratio) {
			t.Errorf("%s: NaN ratio", row.Name)
			continue
		}
		if row.Ratio < 0.999 {
			t.Errorf("%s: measured beats the bound (ratio %v) — impossible", row.Name, row.Ratio)
		}
		if row.Ratio > 1.15 {
			t.Errorf("%s: ratio %v too far above 1; construction not tight", row.Name, row.Ratio)
		}
	}
}

func TestRunCollisionMCTracksEq12(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	res, err := RunCollisionMC(StdParams, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Eq 12 with S−1 interferers per packet. A crowd always collides
		// somewhat; a zero rate means the row ran a single transmitter.
		if row.Measured <= 0 {
			t.Errorf("S=%d: no collisions measured", row.S)
		}
		if math.Abs(row.Measured-row.Predicted) > 0.5*row.Predicted+0.01 {
			t.Errorf("S=%d: measured %v vs predicted %v", row.S, row.Measured, row.Predicted)
		}
	}
}

func TestRendersNonEmpty(t *testing.T) {
	t1, err := RunTable1(StdParams)
	if err != nil {
		t.Fatal(err)
	}
	ach, err := RunAchievability(StdParams)
	if err != nil {
		t.Fatal(err)
	}
	appb, err := RunAppendixB(StdParams)
	if err != nil {
		t.Fatal(err)
	}
	outputs := map[string]string{
		"table1":  t1.Render(),
		"fig6":    RunFigure6(StdParams).Render(),
		"fig7":    RunFigure7(StdParams).Render(),
		"slotted": RunSlottedAlpha(36).Render(),
		"appb":    appb.Render(),
		"achieve": ach.Render(),
	}
	for name, out := range outputs {
		if len(out) < 100 {
			t.Errorf("%s: render too short:\n%s", name, out)
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%s: render contains NaN:\n%s", name, out)
		}
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}
