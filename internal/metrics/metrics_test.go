package metrics

import (
	"strings"
	"testing"
)

func sample() Results {
	return Results{
		System:                 "quetzal",
		Environment:            "crowded",
		Captures:               1000,
		Arrivals:               400,
		InterestingArrivals:    200,
		IBODropsInteresting:    20,
		IBODropsOther:          10,
		IBOReinsertInteresting: 5,
		IBOReinsertOther:       1,
		FalseNegatives:         15,
		TruePositives:          160,
		TrueNegatives:          150,
		FalsePositives:         20,
		HighQInteresting:       100,
		LowQInteresting:        55,
		HighQUninteresting:     12,
		LowQUninteresting:      8,
		JobsCompleted:          500,
		Degradations:           120,
		IBOPredictions:         130,
		IBOsAverted:            110,
	}
}

func TestDerivedMetrics(t *testing.T) {
	r := sample()
	if got := r.IBOLossesInteresting(); got != 25 {
		t.Errorf("IBOLossesInteresting = %d, want 25", got)
	}
	if got := r.InterestingDiscarded(); got != 40 {
		t.Errorf("InterestingDiscarded = %d, want 40", got)
	}
	if got := r.DiscardedFraction(); got != 40.0/200 {
		t.Errorf("DiscardedFraction = %g, want 0.2", got)
	}
	if got := r.IBOFraction(); got != 0.125 {
		t.Errorf("IBOFraction = %g, want 0.125", got)
	}
	if got := r.ReportedInteresting(); got != 155 {
		t.Errorf("ReportedInteresting = %d, want 155", got)
	}
	if got := r.HighQualityShare(); got != 100.0/155 {
		t.Errorf("HighQualityShare = %g", got)
	}
	if got := r.TotalPackets(); got != 175 {
		t.Errorf("TotalPackets = %d, want 175", got)
	}
	if got := r.DegradationRate(); got != 0.24 {
		t.Errorf("DegradationRate = %g, want 0.24", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var r Results
	if r.DiscardedFraction() != 0 || r.IBOFraction() != 0 ||
		r.HighQualityShare() != 0 || r.DegradationRate() != 0 ||
		r.CaptureMissFraction() != 0 {
		t.Error("zero-denominator metrics must return 0")
	}
}

func TestCaptureMissFraction(t *testing.T) {
	r := Results{MissedInteresting: 25, InterestingArrivals: 75}
	if got := r.CaptureMissFraction(); got != 0.25 {
		t.Errorf("CaptureMissFraction = %g, want 0.25", got)
	}
}

func TestCheckAcceptsConsistent(t *testing.T) {
	if err := sample().Check(); err != nil {
		t.Errorf("Check on consistent results: %v", err)
	}
	if err := (Results{}).Check(); err != nil {
		t.Errorf("Check on zero results: %v", err)
	}
}

func TestCheckCatchesInconsistencies(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Results)
		want   string
	}{
		{"negative", func(r *Results) { r.Captures = -1 }, "negative"},
		{"interesting>arrivals", func(r *Results) { r.InterestingArrivals = r.Arrivals + 1 }, "exceed arrivals"},
		{"ibo>interesting", func(r *Results) { r.IBODropsInteresting = r.InterestingArrivals + 1 }, "exceed interesting"},
		{"overflow", func(r *Results) { r.FalseNegatives = 1000; r.HighQInteresting = 0; r.LowQInteresting = 0 }, "accounting overflow"},
		{"averted>predicted", func(r *Results) { r.IBOsAverted = r.IBOPredictions + 1 }, "averted"},
		{"reinsert>tp", func(r *Results) { r.IBOReinsertInteresting = r.TruePositives + 1 }, "reinsertion losses"},
		{"reported>tp", func(r *Results) {
			r.HighQInteresting = 1000
			r.TruePositives = 1001
			r.InterestingArrivals = 2000
			r.Arrivals = 2000
			r.IBODropsInteresting = 0
			r.FalseNegatives = 0
		}, "exceeds true positives"},
	}
	for _, tc := range cases {
		r := sample()
		tc.mutate(&r)
		err := r.Check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckReportedVsTruePositives(t *testing.T) {
	r := sample()
	r.HighQInteresting = 200
	if err := r.Check(); err == nil {
		t.Error("Check accepted more reports than true positives")
	}
}

func TestString(t *testing.T) {
	s := sample().String()
	for _, frag := range []string{"quetzal", "crowded", "IBO 25", "FN 15"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// Every identity Check enforces, one mutation per row — including the
// identities added for the correctness harness (capture subsets, aborted
// bounds, degradation bounds, sojourn bound, reflective negativity).
func TestCheckCatchesEachIdentity(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Results)
		want   string
	}{
		{"negative-float", func(r *Results) { r.SojournSum = -1 }, "negative counter SojournSum"},
		{"negative-array", func(r *Results) { r.OptionUsage[2] = -4 }, "negative counter OptionUsage[2]"},
		{"misses>captures", func(r *Results) { r.CaptureMisses = r.Captures + 1 }, "capture misses"},
		{"missedInteresting>misses", func(r *Results) { r.MissedInteresting = r.CaptureMisses + 1 }, "missed interesting"},
		{"arrivals>captures", func(r *Results) { r.Arrivals = r.Captures + 1; r.InterestingArrivals = 0; r.IBODropsOther = 0 }, "surviving captures"},
		{"iboOther>uninteresting", func(r *Results) { r.IBODropsOther = r.Arrivals - r.InterestingArrivals + 1 }, "uninteresting IBO drops"},
		{"degradations>jobs", func(r *Results) { r.Degradations = r.JobsCompleted + 1 }, "degradations"},
		{"abortedInteresting>aborts", func(r *Results) { r.AbortedInteresting = r.JobAborts + 1 }, "aborted interesting"},
		{"sojourn>duration", func(r *Results) { r.SimSeconds = 10; r.SojournCount = 2; r.SojournSum = 21 }, "sojourn sum"},
	}
	for _, tc := range cases {
		r := sample()
		tc.mutate(&r)
		err := r.Check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// Check reports every broken identity at once, not just the first.
func TestCheckJoinsAllViolations(t *testing.T) {
	r := sample()
	r.Captures = -1                      // negative counter
	r.Degradations = 9999                // > jobs completed
	r.IBOsAverted = r.IBOPredictions + 5 // > predictions
	err := r.Check()
	if err == nil {
		t.Fatal("no error")
	}
	for _, want := range []string{"negative counter Captures", "degradations", "averted"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q:\n%v", want, err)
		}
	}
}

func TestDiffIdentical(t *testing.T) {
	a := sample()
	if d := Diff(a, a, Tolerance{}); len(d) != 0 {
		t.Errorf("identical results differ: %v", d)
	}
}

func TestDiffFindsEveryFieldKind(t *testing.T) {
	a := sample()
	b := sample()
	b.System = "other"      // string
	b.Captures += 100       // int
	b.HarvestedJoules = 3.5 // float64
	b.OptionUsage[1] = 7    // array element
	d := Diff(a, b, Tolerance{})
	if len(d) != 4 {
		t.Fatalf("got %d diffs, want 4: %v", len(d), d)
	}
	joined := strings.Join(d, "\n")
	for _, want := range []string{"System", "Captures", "HarvestedJoules", "OptionUsage[1]"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diffs missing %q:\n%s", want, joined)
		}
	}
}

func TestDiffTolerances(t *testing.T) {
	a := sample()
	b := sample()
	b.Captures = 1040 // 4% off 1000
	if d := Diff(a, b, Tolerance{Default: FieldTol{Rel: 0.05}}); len(d) != 0 {
		t.Errorf("4%% difference flagged under 5%% tolerance: %v", d)
	}
	if d := Diff(a, b, Tolerance{Default: FieldTol{Rel: 0.01}}); len(d) != 1 {
		t.Errorf("4%% difference not flagged under 1%% tolerance: %v", d)
	}
	// Absolute floor covers small counters where relative bounds are
	// meaningless.
	b = sample()
	b.JobAborts = 3
	tol := Tolerance{Fields: map[string]FieldTol{"JobAborts": {Abs: 5}}}
	if d := Diff(a, b, tol); len(d) != 0 {
		t.Errorf("difference of 3 flagged under abs floor 5: %v", d)
	}
}
