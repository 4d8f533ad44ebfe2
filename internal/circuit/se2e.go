package circuit

import "fmt"

// SeTable holds the eight pre-multiplied t_exe values for one task (or one
// degradation option of a task). The paper pre-multiplies t_exe at
// profile-time with all eight fractional-exponent values so the runtime
// S_e2e computation needs no floating point and no division: the lowest
// three bits of (d2−d1) select the entry, the remaining bits give the shift
// (Algorithm 3).
type SeTable struct {
	texe    float64    // the task's profiled execution latency, seconds
	premult [8]float64 // texe · 2^{i/8}
	d2      uint8      // ADC code for the task's execution power, recorded at profiling
}

// NewSeTable builds the table for a task with execution latency texe (s)
// whose execution-power diode reading was quantised to code d2.
func NewSeTable(texe float64, d2 uint8) SeTable {
	if texe <= 0 {
		panic(fmt.Sprintf("circuit: t_exe must be positive, got %g", texe))
	}
	var t SeTable
	t.texe = texe
	t.d2 = d2
	for i := range t.premult {
		t.premult[i] = texe * frac8[i]
	}
	return t
}

// Texe returns the profiled execution latency in seconds.
func (t SeTable) Texe() float64 { return t.texe }

// Se2e evaluates Algorithm 3: the task's end-to-end service time given the
// runtime input-power code d1 (V_D1). When the recorded execution-power code
// does not exceed the input-power code, harvest outpaces execution and
// S_e2e = t_exe; otherwise S_e2e = t_exe · 2^{(d2−d1)/8}, computed from the
// pre-multiplied table with shifts only.
func (t SeTable) Se2e(d1 uint8) float64 {
	if t.d2 <= d1 {
		return t.texe
	}
	delta := int(t.d2) - int(d1)
	return t.premult[delta&0x07] * float64(uint64(1)<<uint(delta>>3))
}

// Se2eExact computes the reference value max(t_exe, t_exe·P_exe/P_in) with
// full floating-point division — what the MCU would have to do without the
// hardware module. Used for error characterisation and the Avg-S_e2e
// baseline's ideal comparator.
func Se2eExact(texe, pexe, pin float64) float64 {
	if pin <= 0 {
		// No harvestable power: recharge time is unbounded. Callers treat
		// +Inf as "this job cannot finish until power returns"; the
		// scheduler still orders jobs by t_exe·P_exe in this regime, so
		// return a very large but finite sentinel scaled by energy.
		return texe * pexe * 1e9
	}
	charge := texe * pexe / pin
	if charge > texe {
		return charge
	}
	return texe
}
