// Package metrics defines the result accounting shared by the simulator and
// the experiment harness. The paper's evaluation reads three families of
// numbers from each run (Figures 8–13):
//
//   - interesting inputs discarded, split into losses at the buffer
//     boundary (IBOs) and classifier false negatives;
//   - radio packets reported, split by quality (high = auditable full
//     image, low = single byte) and ground truth (interesting vs
//     uninteresting false positives); and
//   - capture losses, for the capture-rate-degradation study (Fig 2b).
package metrics

import (
	"errors"
	"fmt"
	"reflect"
)

// Results accumulates everything one simulation run produces.
type Results struct {
	System      string  // name of the system/policy under test
	Environment string  // sensing environment label
	SimSeconds  float64 // simulated wall-clock

	// Capture pipeline.
	Captures      int // frames the camera captured
	CaptureMisses int // frames lost because the device was browned out
	// MissedInteresting counts capture misses that overlapped an
	// interesting event (lost before even reaching the buffer).
	MissedInteresting int

	// Buffer boundary. Arrivals are diff-positive frames offered to the
	// buffer (plus re-insertions are tracked separately by the buffer).
	Arrivals            int
	InterestingArrivals int
	IBODropsInteresting int // interesting inputs lost to buffer overflow on first arrival
	IBODropsOther       int
	// Re-insertion losses: an input survived its first stage but its
	// follow-up job (e.g. report after a positive classification) was lost
	// to a full buffer. These are IBO losses too — the event goes
	// unreported — but they are accounted separately because the input was
	// already judged by the classifier.
	IBOReinsertInteresting int
	IBOReinsertOther       int

	// Classifier outcomes.
	FalseNegatives int // interesting inputs discarded by the classifier
	TrueNegatives  int // uninteresting inputs correctly discarded
	FalsePositives int // uninteresting inputs passed on to reporting
	TruePositives  int // interesting inputs passed on to reporting

	// Radio packets.
	HighQInteresting   int
	LowQInteresting    int
	HighQUninteresting int
	LowQUninteresting  int

	// Queueing instrumentation (Little's-Law validation).
	OccupancyIntegral float64 // ∫ occupancy dt over the run, in input·seconds
	SojournSum        float64 // total capture→departure time of completed inputs
	SojournCount      int     // inputs that fully left the system

	// Intermittent execution.
	AtomicRestarts int // atomic tasks restarted after a power failure
	// JobAborts counts jobs abandoned by the watchdog after too many
	// progress-losing restarts (a task whose energy cost exceeds what the
	// store can bank can never complete without checkpointing).
	JobAborts          int
	AbortedInteresting int // aborted jobs whose input was interesting

	// OptionUsage counts, per option index, how many times a degradable
	// task executed at that quality (index 0 = highest). Sized to the
	// §5.1 library limit of 4 options per task.
	OptionUsage [4]int

	// Runtime behaviour.
	JobsCompleted    int
	Degradations     int // jobs executed with a degraded option
	IBOPredictions   int // Algorithm 2 detections
	IBOsAverted      int // detections cleared by a degradation option
	Brownouts        int
	SchedInvocations int
	OverheadSeconds  float64
	OverheadJoules   float64
	HarvestedJoules  float64
	ConsumedJoules   float64
	WastedJoules     float64 // harvest lost to regulation while the store was full

	// Hardware realism (internal/faults). TransientFaults counts injected
	// task-execution faults detected at completion (each forces a full
	// re-execution). MeasSamples counts controller ADC reads charged for;
	// MeasJoules/MeasSeconds are the intended per-sample costs summed over
	// the run (MeasJoules == MeasSamples × per-sample energy exactly — the
	// invariant checker holds this identity).
	TransientFaults int
	MeasSamples     int
	MeasJoules      float64
	MeasSeconds     float64
}

// IBOLossesInteresting totals interesting inputs lost at the buffer
// boundary, whether on first arrival or on re-insertion.
func (r Results) IBOLossesInteresting() int {
	return r.IBODropsInteresting + r.IBOReinsertInteresting
}

// InterestingDiscarded is the paper's headline metric: interesting inputs
// lost to IBOs plus those lost to classifier false negatives.
func (r Results) InterestingDiscarded() int {
	return r.IBOLossesInteresting() + r.FalseNegatives
}

// DiscardedFraction returns InterestingDiscarded as a fraction of all
// interesting inputs that arrived at the buffer ("% of all interesting
// inputs" in Figures 9–11).
func (r Results) DiscardedFraction() float64 {
	if r.InterestingArrivals == 0 {
		return 0
	}
	return float64(r.InterestingDiscarded()) / float64(r.InterestingArrivals)
}

// IBOFraction returns only the IBO share of the discarded fraction.
func (r Results) IBOFraction() float64 {
	if r.InterestingArrivals == 0 {
		return 0
	}
	return float64(r.IBOLossesInteresting()) / float64(r.InterestingArrivals)
}

// ReportedInteresting returns the interesting inputs the device reported.
func (r Results) ReportedInteresting() int {
	return r.HighQInteresting + r.LowQInteresting
}

// HighQualityShare returns the fraction of reported interesting inputs that
// were sent at high quality (full images), in [0,1].
func (r Results) HighQualityShare() float64 {
	tot := r.ReportedInteresting()
	if tot == 0 {
		return 0
	}
	return float64(r.HighQInteresting) / float64(tot)
}

// TotalPackets counts every transmission.
func (r Results) TotalPackets() int {
	return r.HighQInteresting + r.LowQInteresting + r.HighQUninteresting + r.LowQUninteresting
}

// CaptureMissFraction returns the fraction of interesting activity lost at
// capture time (Fig 2b's "fails to even capture" losses): missed interesting
// captures over missed + arrived.
func (r Results) CaptureMissFraction() float64 {
	tot := r.MissedInteresting + r.InterestingArrivals
	if tot == 0 {
		return 0
	}
	return float64(r.MissedInteresting) / float64(tot)
}

// DegradationRate returns degraded jobs over completed jobs.
func (r Results) DegradationRate() float64 {
	if r.JobsCompleted == 0 {
		return 0
	}
	return float64(r.Degradations) / float64(r.JobsCompleted)
}

// Check validates internal consistency; the simulator calls it at the end
// of every run so accounting bugs fail loudly in tests and experiments.
// Every violated identity is reported (joined), not just the first, so a
// single failing run exposes its full accounting damage at once.
func (r Results) Check() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("metrics: "+format, args...))
	}

	// No counter may ever be negative: walk every numeric field so new
	// counters are covered automatically.
	v := reflect.ValueOf(r)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			if f.Int() < 0 {
				bad("negative counter %s = %d", t.Field(i).Name, f.Int())
			}
		case reflect.Float64:
			if f.Float() < 0 {
				bad("negative counter %s = %g", t.Field(i).Name, f.Float())
			}
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				if f.Index(j).Int() < 0 {
					bad("negative counter %s[%d] = %d", t.Field(i).Name, j, f.Index(j).Int())
				}
			}
		}
	}

	// Capture pipeline: misses are a subset of captures, interesting
	// misses a subset of misses, and only non-missed frames can arrive.
	if r.CaptureMisses > r.Captures {
		bad("capture misses %d exceed captures %d", r.CaptureMisses, r.Captures)
	}
	if r.MissedInteresting > r.CaptureMisses {
		bad("missed interesting %d exceed capture misses %d", r.MissedInteresting, r.CaptureMisses)
	}
	if r.Arrivals > r.Captures-r.CaptureMisses && r.Captures > 0 {
		bad("arrivals %d exceed surviving captures %d", r.Arrivals, r.Captures-r.CaptureMisses)
	}

	// Buffer boundary.
	if r.InterestingArrivals > r.Arrivals {
		bad("interesting arrivals %d exceed arrivals %d", r.InterestingArrivals, r.Arrivals)
	}
	if r.IBODropsInteresting > r.InterestingArrivals {
		bad("IBO drops %d exceed interesting arrivals %d", r.IBODropsInteresting, r.InterestingArrivals)
	}
	if r.IBODropsOther > r.Arrivals-r.InterestingArrivals && r.Arrivals >= r.InterestingArrivals {
		bad("uninteresting IBO drops %d exceed uninteresting arrivals %d",
			r.IBODropsOther, r.Arrivals-r.InterestingArrivals)
	}
	// An interesting input can be discarded by a classifier at most once
	// (a negative verdict removes it), so false negatives plus entry-drops
	// cannot exceed arrivals. True positives may exceed arrivals when a
	// chain holds several classifiers, so they are excluded.
	if r.FalseNegatives+r.IBODropsInteresting > r.InterestingArrivals {
		bad("interesting accounting overflow: FN %d + IBO %d > arrivals %d",
			r.FalseNegatives, r.IBODropsInteresting, r.InterestingArrivals)
	}
	if r.IBOsAverted > r.IBOPredictions {
		bad("averted %d exceeds predictions %d", r.IBOsAverted, r.IBOPredictions)
	}
	if r.IBOReinsertInteresting > r.TruePositives {
		bad("reinsertion losses %d exceed true positives %d",
			r.IBOReinsertInteresting, r.TruePositives)
	}
	// Reports are bounded by positive classifications — when the app has a
	// classifier at all (transmit-only apps report unclassified inputs).
	if r.TruePositives+r.FalseNegatives > 0 && r.ReportedInteresting() > r.TruePositives {
		bad("reported interesting %d exceeds true positives %d",
			r.ReportedInteresting(), r.TruePositives)
	}

	// Runtime behaviour.
	if r.Degradations > r.JobsCompleted {
		bad("degradations %d exceed completed jobs %d", r.Degradations, r.JobsCompleted)
	}
	if r.AbortedInteresting > r.JobAborts {
		bad("aborted interesting %d exceed aborts %d", r.AbortedInteresting, r.JobAborts)
	}

	// Queueing instrumentation: no completed input can sojourn longer than
	// the run itself, so the sum is bounded by count × duration.
	if r.SimSeconds > 0 && r.SojournSum > float64(r.SojournCount)*r.SimSeconds+1e-9 {
		bad("sojourn sum %g exceeds %d inputs × %g s run", r.SojournSum, r.SojournCount, r.SimSeconds)
	}

	return errors.Join(errs...)
}

// FieldTol is a per-field comparison tolerance for Diff: the absolute
// difference must satisfy |a−b| ≤ max(Rel·max(|a|,|b|), Abs).
type FieldTol struct {
	Rel float64
	Abs float64
}

// Tolerance configures Diff. Zero-valued fields fall back to exact
// comparison, so callers state every permitted disagreement explicitly.
type Tolerance struct {
	// Default applies to every numeric field without an override.
	Default FieldTol
	// Fields overrides the default per struct-field name (e.g.
	// "Brownouts"). An OptionUsage element uses the name "OptionUsage".
	Fields map[string]FieldTol
}

func (t Tolerance) forField(name string) FieldTol {
	if ft, ok := t.Fields[name]; ok {
		return ft
	}
	return t.Default
}

func (ft FieldTol) ok(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	if scale < 0 {
		scale = -scale
	}
	allowed := ft.Rel * scale
	if ft.Abs > allowed {
		allowed = ft.Abs
	}
	return diff <= allowed
}

// Diff compares every exported field of two Results under the given
// tolerance and returns one human-readable line per disagreeing field
// (empty when the two agree everywhere). Numeric fields compare within
// tolerance; string fields must match exactly. Walking the struct by
// reflection means a future counter is compared automatically — a new
// field can never silently escape the differential oracle.
//
// Diff is test infrastructure: no production path compares two runs. It is
// exported because the engine, sim and simgen tests share it, so every
// parity and differential check compares the same fields the same way.
func Diff(a, b Results, tol Tolerance) []string {
	var diffs []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		name := t.Field(i).Name
		fa, fb := va.Field(i), vb.Field(i)
		ft := tol.forField(name)
		switch fa.Kind() {
		case reflect.String:
			if fa.String() != fb.String() {
				diffs = append(diffs, fmt.Sprintf("%s: %q vs %q", name, fa.String(), fb.String()))
			}
		case reflect.Int:
			if !ft.ok(float64(fa.Int()), float64(fb.Int())) {
				diffs = append(diffs, fmt.Sprintf("%s: %d vs %d (tol rel %g abs %g)",
					name, fa.Int(), fb.Int(), ft.Rel, ft.Abs))
			}
		case reflect.Float64:
			if !ft.ok(fa.Float(), fb.Float()) {
				diffs = append(diffs, fmt.Sprintf("%s: %g vs %g (tol rel %g abs %g)",
					name, fa.Float(), fb.Float(), ft.Rel, ft.Abs))
			}
		case reflect.Array:
			for j := 0; j < fa.Len(); j++ {
				if !ft.ok(float64(fa.Index(j).Int()), float64(fb.Index(j).Int())) {
					diffs = append(diffs, fmt.Sprintf("%s[%d]: %d vs %d (tol rel %g abs %g)",
						name, j, fa.Index(j).Int(), fb.Index(j).Int(), ft.Rel, ft.Abs))
				}
			}
		default:
			diffs = append(diffs, fmt.Sprintf("%s: uncomparable kind %s", name, fa.Kind()))
		}
	}
	return diffs
}

// String renders a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf("%s/%s: discarded %d (IBO %d, FN %d) of %d interesting; reported %d (HQ %d); degraded %d/%d jobs",
		r.System, r.Environment, r.InterestingDiscarded(), r.IBOLossesInteresting(), r.FalseNegatives,
		r.InterestingArrivals, r.ReportedInteresting(), r.HighQInteresting, r.Degradations, r.JobsCompleted)
}
