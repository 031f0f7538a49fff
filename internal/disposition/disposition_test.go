package disposition

import (
	"math"
	"strings"
	"testing"

	"repro/internal/replication"
	"repro/internal/testutil"
)

func TestVariantStrings(t *testing.T) {
	for _, v := range []Variant{PrivateValuation, PrivateCapacity, PrivateBoth} {
		if v.String() == "" || v.Description() == "" {
			t.Fatalf("variant %d lacks name or description", int(v))
		}
	}
	if PrivateValuation.String() != "DRP[π]" {
		t.Fatalf("got %q", PrivateValuation.String())
	}
	if !strings.Contains(Variant(9).String(), "9") {
		t.Fatal("unknown variant string")
	}
	if Variant(9).Description() != "" {
		t.Fatal("unknown variant should have empty description")
	}
}

// busyAgent finds a server that wins something in the truthful game, so
// misreporting experiments have a subject with skin in the game.
func busyAgent(t *testing.T, build func() (*replication.Problem, error)) int {
	t.Helper()
	for id := 0; id < 16; id++ {
		truth, _, err := CapacityMisreport(build, id, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if truth.Wins > 2 {
			return id
		}
	}
	t.Skip("no busy agent on this instance")
	return -1
}

func buildFor(seed int64) func() (*replication.Problem, error) {
	return func() (*replication.Problem, error) {
		cfg := testutil.Small(seed)
		cfg.CapacityPercent = 10 // binding, so capacity lies have teeth
		return testutil.Build(cfg)
	}
}

func TestFactorOneIsIdentity(t *testing.T) {
	build := buildFor(1)
	truth, mis, err := CapacityMisreport(build, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if truth != mis {
		t.Fatalf("factor 1.0 changed the outcome: %+v vs %+v", truth, mis)
	}
	if truth.Ejected {
		t.Fatal("truthful agent ejected")
	}
}

// Over-claiming capacity gets the agent ejected on its first infeasible
// award and never improves utility — the reason the mechanism can treat
// capacity as public (Axiom 2's remark).
func TestOverClaimNeverHelps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		build := buildFor(seed)
		agent := busyAgent(t, build)
		truth, mis, err := CapacityMisreport(build, agent, 4.0)
		if err != nil {
			t.Fatal(err)
		}
		if mis.Utility > truth.Utility {
			t.Fatalf("seed %d: over-claiming raised utility %d -> %d",
				seed, truth.Utility, mis.Utility)
		}
	}
}

func TestOverClaimEjectsUnderPressure(t *testing.T) {
	ejectedSomewhere := false
	for seed := int64(1); seed <= 6; seed++ {
		build := buildFor(seed)
		agent := busyAgent(t, build)
		_, mis, err := CapacityMisreport(build, agent, 8.0)
		if err != nil {
			t.Fatal(err)
		}
		if mis.Ejected {
			ejectedSomewhere = true
			break
		}
	}
	if !ejectedSomewhere {
		t.Fatal("an 8x capacity over-claim never triggered an ejection under binding capacity")
	}
}

// Under-claiming only forfeits the agent's own opportunities.
func TestUnderClaimNeverHelps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		build := buildFor(seed)
		agent := busyAgent(t, build)
		truth, mis, err := CapacityMisreport(build, agent, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if mis.Ejected {
			t.Fatalf("seed %d: under-claiming cannot be infeasible", seed)
		}
		if mis.Utility > truth.Utility {
			t.Fatalf("seed %d: under-claiming raised utility %d -> %d",
				seed, truth.Utility, mis.Utility)
		}
		if mis.Wins > truth.Wins {
			t.Fatalf("seed %d: under-claiming won more allocations", seed)
		}
	}
}

func TestCapacityMisreportErrors(t *testing.T) {
	build := buildFor(1)
	if _, _, err := CapacityMisreport(build, 0, 0); err == nil {
		t.Fatal("zero factor accepted")
	}
	if _, _, err := CapacityMisreport(build, -1, 1.5); err == nil {
		t.Fatal("negative agent accepted")
	}
	if _, _, err := CapacityMisreport(build, 9999, 1.5); err == nil {
		t.Fatal("out-of-range agent accepted")
	}
	// A claim the int64 capacity cannot represent must not wrap into a
	// negative one, which would play an over-claim as an under-claim.
	for _, f := range []float64{1e30, math.Inf(1), math.NaN()} {
		if _, _, err := CapacityMisreport(build, 0, f); err == nil {
			t.Fatalf("factor %v accepted", f)
		}
	}
}

// TestCapacityMisreportGolden pins both outcomes of the DRP[σ] game for
// agent 3 on four seeds and four claim factors. The values are recorded
// from a reference run; the property tests above check only inequalities.
func TestCapacityMisreportGolden(t *testing.T) {
	golden := []struct {
		seed            int64
		factor          float64
		truth, misclaim Outcome
	}{
		{1, 0.3, Outcome{0, 0, false, 30.905203490540238}, Outcome{0, 0, false, 30.905203490540238}},
		{1, 1, Outcome{0, 0, false, 30.905203490540238}, Outcome{0, 0, false, 30.905203490540238}},
		{1, 4, Outcome{0, 0, false, 30.905203490540238}, Outcome{0, 0, false, 30.905203490540238}},
		{1, 8, Outcome{0, 0, false, 30.905203490540238}, Outcome{0, 0, false, 30.905203490540238}},
		{2, 0.3, Outcome{2, 915, false, 22.714490567443246}, Outcome{1, 68, false, 22.552780726421712}},
		{2, 1, Outcome{2, 915, false, 22.714490567443246}, Outcome{2, 915, false, 22.714490567443246}},
		{2, 4, Outcome{2, 915, false, 22.714490567443246}, Outcome{2, 915, true, 22.714490567443246}},
		{2, 8, Outcome{2, 915, false, 22.714490567443246}, Outcome{2, 915, true, 22.714490567443246}},
		{3, 0.3, Outcome{5, 9373, false, 18.8473786407767}, Outcome{3, 6645, false, 18.25294498381877}},
		{3, 1, Outcome{5, 9373, false, 18.8473786407767}, Outcome{5, 9373, false, 18.8473786407767}},
		{3, 4, Outcome{5, 9373, false, 18.8473786407767}, Outcome{3, 9082, true, 18.793009708737863}},
		{3, 8, Outcome{5, 9373, false, 18.8473786407767}, Outcome{3, 9082, true, 18.793009708737863}},
		{4, 0.3, Outcome{3, 2258, false, 13.784340374226828}, Outcome{1, 1575, false, 13.751491294091316}},
		{4, 1, Outcome{3, 2258, false, 13.784340374226828}, Outcome{3, 2258, false, 13.784340374226828}},
		{4, 4, Outcome{3, 2258, false, 13.784340374226828}, Outcome{3, 2258, false, 13.784340374226828}},
		{4, 8, Outcome{3, 2258, false, 13.784340374226828}, Outcome{3, 2258, false, 13.784340374226828}},
	}
	for _, g := range golden {
		truth, mis, err := CapacityMisreport(buildFor(g.seed), 3, g.factor)
		if err != nil {
			t.Fatal(err)
		}
		if truth != g.truth || mis != g.misclaim {
			t.Errorf("seed %d factor %v: truthful %+v misreport %+v, want %+v and %+v",
				g.seed, g.factor, truth, mis, g.truth, g.misclaim)
		}
	}
}
