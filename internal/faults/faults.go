// Package faults is the hardware-realism layer: a declarative, validated
// fault/realism specification (Spec) plus the deterministic machinery the
// engine needs to apply it — per-sample measurement cost, junction
// temperature as a function of time, transient task-execution faults,
// harvester dropout windows, and ADC stuck-bit corruption of measured
// store levels.
//
// Everything here is a pure function of (Spec, seed, time or index): no
// package state, no wall clock, no math/rand streams shared with the
// simulator. Fault draws hash a dedicated split-seed (DeriveSeed /
// fleet.StreamFaults) so the same Spec produces bit-identical fault
// sequences across the fixed-increment and event-driven steppers and across
// any fleet shard layout. DESIGN.md §15 documents the full model.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"quetzal/internal/trace"
)

// Temperature band the paper characterises the circuit model over
// (25–50 °C, ≤5.5 % energy-ratio error). Specs outside the band are
// rejected rather than extrapolated.
const (
	MinTempC = 25
	MaxTempC = 50

	// DefaultTempPeriodS is the diurnal period assumed when a swing is
	// requested without an explicit period.
	DefaultTempPeriodS = 86400
)

// Spec declares the realism knobs for one run. The zero value means "ideal
// hardware": free instantaneous measurement, 25 °C, no faults — and is
// guaranteed to cost nothing in the engine hot path. All fields are small
// integers so Spec is comparable (usable in RunKey and memo-pool keys) and
// trivially expressible as simgen lattice knobs.
type Spec struct {
	// TaskFaultPct is the per-task-completion transient-fault probability
	// in percent [0, 100]. A faulted task is detected at completion and
	// re-executed from the start (EnSuRe-style), visible to the policy via
	// core.Feedback.Faults.
	TaskFaultPct int `json:"task_fault_pct,omitempty"`
	// TaskFaultLimit caps the total number of injected task faults per
	// run (0 = unlimited). Requires TaskFaultPct > 0.
	TaskFaultLimit int `json:"task_fault_limit,omitempty"`

	// DropoutStartS is the start (seconds) of the first harvester dropout
	// window. Requires DropoutDurS > 0.
	DropoutStartS int `json:"dropout_start_s,omitempty"`
	// DropoutDurS is the dropout window length in seconds; > 0 enables
	// dropout windows during which harvested input power is exactly 0 W.
	DropoutDurS int `json:"dropout_dur_s,omitempty"`
	// DropoutPeriodS repeats the window every period seconds (0 =
	// one-shot). Must exceed DropoutDurS when set.
	DropoutPeriodS int `json:"dropout_period_s,omitempty"`

	// StuckHigh / StuckLow are 8-bit masks of ADC result bits stuck at
	// 1 / 0. They corrupt only the *measured* store level reported to the
	// controller (core.Env.StoreEnergy), never the physical store.
	StuckHigh int `json:"stuck_high,omitempty"`
	StuckLow  int `json:"stuck_low,omitempty"`

	// MeasEnergyNJ / MeasLatencyUS are the per-ADC-sample measurement
	// cost: energy in nanojoules drawn from the store and latency in
	// microseconds added to controller overhead, charged once per sample
	// the controller reads.
	MeasEnergyNJ  int `json:"meas_energy_nj,omitempty"`
	MeasLatencyUS int `json:"meas_latency_us,omitempty"`

	// TempC is the junction temperature in °C (0 = default 25 °C;
	// otherwise 25–50). TempSwingC adds a sinusoidal swing of ±swing °C
	// (the whole excursion must stay inside 25–50) with period
	// TempPeriodS seconds (0 = DefaultTempPeriodS).
	TempC       int `json:"temp_c,omitempty"`
	TempSwingC  int `json:"temp_swing_c,omitempty"`
	TempPeriodS int `json:"temp_period_s,omitempty"`
}

// Enabled reports whether any realism knob is set. The engine skips all
// fault bookkeeping when false.
func (s Spec) Enabled() bool { return s != Spec{} }

// Validate rejects out-of-range and internally inconsistent specs with the
// same error style as experiments.KeySpec. A valid spec either runs
// deterministically or is the zero value.
func (s Spec) Validate() error {
	if s.TaskFaultPct < 0 || s.TaskFaultPct > 100 {
		return fmt.Errorf("faults: task_fault_pct %d outside [0, 100]", s.TaskFaultPct)
	}
	if s.TaskFaultLimit < 0 {
		return fmt.Errorf("faults: task_fault_limit %d negative", s.TaskFaultLimit)
	}
	if s.TaskFaultLimit > 0 && s.TaskFaultPct == 0 {
		return fmt.Errorf("faults: task_fault_limit %d requires task_fault_pct > 0", s.TaskFaultLimit)
	}
	if s.DropoutDurS < 0 {
		return fmt.Errorf("faults: dropout_dur_s %d negative", s.DropoutDurS)
	}
	if s.DropoutStartS < 0 {
		return fmt.Errorf("faults: dropout_start_s %d negative", s.DropoutStartS)
	}
	if s.DropoutStartS > 0 && s.DropoutDurS == 0 {
		return fmt.Errorf("faults: dropout_start_s %d requires dropout_dur_s > 0", s.DropoutStartS)
	}
	if s.DropoutPeriodS < 0 {
		return fmt.Errorf("faults: dropout_period_s %d negative", s.DropoutPeriodS)
	}
	if s.DropoutPeriodS > 0 && s.DropoutPeriodS <= s.DropoutDurS {
		return fmt.Errorf("faults: dropout_period_s %d must exceed dropout_dur_s %d", s.DropoutPeriodS, s.DropoutDurS)
	}
	if s.DropoutPeriodS > 0 && s.DropoutDurS == 0 {
		return fmt.Errorf("faults: dropout_period_s %d requires dropout_dur_s > 0", s.DropoutPeriodS)
	}
	if s.StuckHigh < 0 || s.StuckHigh > 255 {
		return fmt.Errorf("faults: stuck_high %d outside [0, 255]", s.StuckHigh)
	}
	if s.StuckLow < 0 || s.StuckLow > 255 {
		return fmt.Errorf("faults: stuck_low %d outside [0, 255]", s.StuckLow)
	}
	if s.StuckHigh&s.StuckLow != 0 {
		return fmt.Errorf("faults: stuck_high %#x and stuck_low %#x overlap", s.StuckHigh, s.StuckLow)
	}
	if s.MeasEnergyNJ < 0 || s.MeasEnergyNJ > 1e6 {
		return fmt.Errorf("faults: meas_energy_nj %d outside [0, 1e6]", s.MeasEnergyNJ)
	}
	if s.MeasLatencyUS < 0 || s.MeasLatencyUS > 1e6 {
		return fmt.Errorf("faults: meas_latency_us %d outside [0, 1e6]", s.MeasLatencyUS)
	}
	if s.TempC != 0 && (s.TempC < MinTempC || s.TempC > MaxTempC) {
		return fmt.Errorf("faults: temp_c %d outside [%d, %d]", s.TempC, MinTempC, MaxTempC)
	}
	if s.TempSwingC < 0 {
		return fmt.Errorf("faults: temp_swing_c %d negative", s.TempSwingC)
	}
	if s.TempSwingC > 0 {
		if s.TempC == 0 {
			return fmt.Errorf("faults: temp_swing_c %d requires temp_c", s.TempSwingC)
		}
		if s.TempC-s.TempSwingC < MinTempC || s.TempC+s.TempSwingC > MaxTempC {
			return fmt.Errorf("faults: temp_c %d ± swing %d leaves [%d, %d]",
				s.TempC, s.TempSwingC, MinTempC, MaxTempC)
		}
	}
	if s.TempPeriodS < 0 {
		return fmt.Errorf("faults: temp_period_s %d negative", s.TempPeriodS)
	}
	if s.TempPeriodS > 0 && s.TempSwingC == 0 {
		return fmt.Errorf("faults: temp_period_s %d requires temp_swing_c > 0", s.TempPeriodS)
	}
	return nil
}

// String renders the spec compactly for run-key strings and logs; the zero
// value renders as "none".
func (s Spec) String() string {
	if !s.Enabled() {
		return "none"
	}
	var parts []string
	if s.TaskFaultPct > 0 {
		p := fmt.Sprintf("task=%d%%", s.TaskFaultPct)
		if s.TaskFaultLimit > 0 {
			p += fmt.Sprintf("x%d", s.TaskFaultLimit)
		}
		parts = append(parts, p)
	}
	if s.DropoutDurS > 0 {
		p := fmt.Sprintf("drop=%d+%d", s.DropoutStartS, s.DropoutDurS)
		if s.DropoutPeriodS > 0 {
			p += fmt.Sprintf("/%d", s.DropoutPeriodS)
		}
		parts = append(parts, p)
	}
	if s.StuckHigh != 0 || s.StuckLow != 0 {
		parts = append(parts, fmt.Sprintf("stuck=%#x:%#x", s.StuckHigh, s.StuckLow))
	}
	if s.MeasEnergyNJ > 0 || s.MeasLatencyUS > 0 {
		parts = append(parts, fmt.Sprintf("meas=%dnJ:%dus", s.MeasEnergyNJ, s.MeasLatencyUS))
	}
	if s.TempC > 0 {
		p := fmt.Sprintf("temp=%d", s.TempC)
		if s.TempSwingC > 0 {
			p += fmt.Sprintf("+%d", s.TempSwingC)
			if s.TempPeriodS > 0 {
				p += fmt.Sprintf("/%d", s.TempPeriodS)
			}
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ",")
}

// splitmix64 is the same finalizer the fleet's split-seed scheme uses
// (deliberately duplicated: faults must not depend on internal/fleet).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// faultSalt separates the standalone fault stream from the simulation
// seed's other derived uses.
const faultSalt = 0xFA017 // "fault"

// DeriveSeed maps a simulation seed to its fault stream seed. Fleet
// devices get theirs from fleet.DeviceSeed(..., StreamFaults) instead so
// the draw is shard-independent; this is the standalone-run equivalent.
func DeriveSeed(simSeed int64) int64 {
	return int64(splitmix64(splitmix64(uint64(simSeed)) ^ faultSalt))
}

// TaskFaultAt reports whether the idx-th task completion of the run (a
// monotone counter the engine maintains) suffers a transient fault, as a
// pure hash of (seed, idx): no stream state, so every stepper agrees
// regardless of how it interleaves other randomness.
func (s Spec) TaskFaultAt(seed int64, idx uint64) bool {
	if s.TaskFaultPct <= 0 {
		return false
	}
	h := splitmix64(uint64(seed) ^ splitmix64(idx))
	return int(h%100) < s.TaskFaultPct
}

// TemperatureAt returns the junction temperature (°C) at simulation time
// t. The zero spec pins the paper's 25 °C characterisation point.
func (s Spec) TemperatureAt(t float64) float64 {
	if s.TempC == 0 {
		return MinTempC
	}
	temp := float64(s.TempC)
	if s.TempSwingC > 0 {
		period := float64(s.TempPeriodS)
		if period == 0 {
			period = DefaultTempPeriodS
		}
		temp += float64(s.TempSwingC) * math.Sin(2*math.Pi*t/period)
	}
	return temp
}

// CorruptStore passes a measured store level (joules, within [0, capacity])
// through an 8-bit ADC with the spec's stuck bits: quantise to a code,
// force the stuck bits, convert back. With no stuck bits the value is
// returned untouched (no quantisation), preserving the ideal-measurement
// baseline bit-for-bit.
func (s Spec) CorruptStore(energy, capacity float64) float64 {
	if s.StuckHigh == 0 && s.StuckLow == 0 {
		return energy
	}
	if capacity <= 0 {
		return energy
	}
	frac := energy / capacity
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	code := int(frac*255 + 0.5)
	code = (code | s.StuckHigh) &^ s.StuckLow
	return float64(code) / 255 * capacity
}

// MeasCost returns the per-sample measurement cost in SI units: joules
// drawn from the store and seconds of controller latency.
func (s Spec) MeasCost() (joules, seconds float64) {
	return float64(s.MeasEnergyNJ) * 1e-9, float64(s.MeasLatencyUS) * 1e-6
}

// Dropout wraps a power trace with harvester dropout windows: inside a
// window the harvestable input power is exactly 0 W, outside it the base
// trace is untouched. Windows start at Start, last Dur seconds, and repeat
// every Period seconds (Period 0 = one-shot). It is layered by
// engine.Config normalisation so every stepper samples the same object.
type Dropout struct {
	Base               trace.PowerTrace
	Start, Dur, Period float64
}

// Power returns the base power, masked to exactly 0 inside dropout
// windows. Like SquareWave, the left edge of a window is inside and the
// right edge is outside.
func (d Dropout) Power(t float64) float64 {
	if _, _, inside := d.WindowAt(t); inside {
		return 0
	}
	return d.Base.Power(t)
}

// WindowAt reports the dropout window governing time t. If t is inside a
// window, inside is true and [lo, hi) bounds that window. Otherwise inside
// is false and [lo, hi) bounds the NEXT window (lo = +Inf when no window
// ever starts after t). The lockstep stepper uses the bounds to prove a
// crawl-replay segment cannot straddle a window edge.
func (d Dropout) WindowAt(t float64) (lo, hi float64, inside bool) {
	if d.Dur <= 0 {
		return math.Inf(1), math.Inf(1), false
	}
	if d.Period <= 0 {
		lo, hi = d.Start, d.Start+d.Dur
		if t >= lo && t < hi {
			return lo, hi, true
		}
		if t < lo {
			return lo, hi, false
		}
		return math.Inf(1), math.Inf(1), false
	}
	rel := t - d.Start
	if rel < 0 {
		return d.Start, d.Start + d.Dur, false
	}
	k := math.Floor(rel / d.Period)
	lo = d.Start + k*d.Period
	hi = lo + d.Dur
	if t < hi {
		return lo, hi, true
	}
	return lo + d.Period, lo + d.Period + d.Dur, false
}

// Windows lists the dropout windows as [start, end) pairs that intersect
// [0, horizon), for the invariant checker's harvest-exactly-0 assertion.
func (s Spec) Windows(horizon float64) [][2]float64 {
	if s.DropoutDurS <= 0 || horizon <= 0 {
		return nil
	}
	var out [][2]float64
	start, dur := float64(s.DropoutStartS), float64(s.DropoutDurS)
	period := float64(s.DropoutPeriodS)
	for lo := start; lo < horizon; lo += period {
		out = append(out, [2]float64{lo, lo + dur})
		if period <= 0 {
			break
		}
	}
	return out
}

// SetFaultsFlag parses the -faults CLI syntax into the spec: a
// comma-separated list of task=PCT[%] · limit=K · dropout=START+DUR[/PERIOD]
// · stuck=HIGH[:LOW], e.g. "task=30,limit=2,dropout=10+5/60,stuck=8:1".
// Parsed values overwrite the corresponding fields; Validate still runs
// afterwards via the caller.
func (s *Spec) SetFaultsFlag(v string) error {
	for _, item := range strings.Split(v, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("faults: %q is not key=value", item)
		}
		switch key {
		case "task":
			n, err := strconv.Atoi(strings.TrimSuffix(val, "%"))
			if err != nil {
				return fmt.Errorf("faults: task=%q: %v", val, err)
			}
			s.TaskFaultPct = n
		case "limit":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("faults: limit=%q: %v", val, err)
			}
			s.TaskFaultLimit = n
		case "dropout":
			spec, period, hasPeriod := strings.Cut(val, "/")
			start, dur, ok := strings.Cut(spec, "+")
			if !ok {
				return fmt.Errorf("faults: dropout=%q wants START+DUR[/PERIOD]", val)
			}
			var err error
			if s.DropoutStartS, err = strconv.Atoi(start); err != nil {
				return fmt.Errorf("faults: dropout start %q: %v", start, err)
			}
			if s.DropoutDurS, err = strconv.Atoi(dur); err != nil {
				return fmt.Errorf("faults: dropout duration %q: %v", dur, err)
			}
			if hasPeriod {
				if s.DropoutPeriodS, err = strconv.Atoi(period); err != nil {
					return fmt.Errorf("faults: dropout period %q: %v", period, err)
				}
			}
		case "stuck":
			high, low, hasLow := strings.Cut(val, ":")
			var err error
			if s.StuckHigh, err = parseMask(high); err != nil {
				return fmt.Errorf("faults: stuck high %q: %v", high, err)
			}
			if hasLow {
				if s.StuckLow, err = parseMask(low); err != nil {
					return fmt.Errorf("faults: stuck low %q: %v", low, err)
				}
			}
		default:
			return fmt.Errorf("faults: unknown key %q (want task, limit, dropout, stuck)", key)
		}
	}
	return nil
}

// parseMask accepts decimal or 0x-prefixed hex bit masks.
func parseMask(v string) (int, error) {
	n, err := strconv.ParseInt(v, 0, 32)
	return int(n), err
}

// SetTempFlag parses the -temp CLI syntax: "C" for a constant junction
// temperature, "C+S" for a diurnal ±S swing, "C+S/PERIOD" for an explicit
// period in seconds — e.g. "45+5/3600".
func (s *Spec) SetTempFlag(v string) error {
	base, rest, hasSwing := strings.Cut(v, "+")
	n, err := strconv.Atoi(strings.TrimSpace(base))
	if err != nil {
		return fmt.Errorf("faults: temp %q: %v", base, err)
	}
	s.TempC = n
	if !hasSwing {
		return nil
	}
	swing, period, hasPeriod := strings.Cut(rest, "/")
	if s.TempSwingC, err = strconv.Atoi(swing); err != nil {
		return fmt.Errorf("faults: temp swing %q: %v", swing, err)
	}
	if hasPeriod {
		if s.TempPeriodS, err = strconv.Atoi(period); err != nil {
			return fmt.Errorf("faults: temp period %q: %v", period, err)
		}
	}
	return nil
}

// SetMeasFlag parses the -meascost CLI syntax: "NJ" or "NJ:US" — the
// per-sample measurement energy in nanojoules and latency in microseconds,
// e.g. "250:20".
func (s *Spec) SetMeasFlag(v string) error {
	nj, us, hasLatency := strings.Cut(v, ":")
	n, err := strconv.Atoi(strings.TrimSpace(nj))
	if err != nil {
		return fmt.Errorf("faults: meascost energy %q: %v", nj, err)
	}
	s.MeasEnergyNJ = n
	if hasLatency {
		if s.MeasLatencyUS, err = strconv.Atoi(strings.TrimSpace(us)); err != nil {
			return fmt.Errorf("faults: meascost latency %q: %v", us, err)
		}
	}
	return nil
}

// FromFlags folds the three CLI realism flags (-faults, -temp, -meascost;
// empty = unset) into one validated Spec — the shared entry point for every
// command-line front end.
func FromFlags(faultsF, tempF, measF string) (Spec, error) {
	var spec Spec
	if faultsF != "" {
		if err := spec.SetFaultsFlag(faultsF); err != nil {
			return Spec{}, fmt.Errorf("-faults: %w", err)
		}
	}
	if tempF != "" {
		if err := spec.SetTempFlag(tempF); err != nil {
			return Spec{}, fmt.Errorf("-temp: %w", err)
		}
	}
	if measF != "" {
		if err := spec.SetMeasFlag(measF); err != nil {
			return Spec{}, fmt.Errorf("-meascost: %w", err)
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
