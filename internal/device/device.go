// Package device provides the hardware cost models the simulator consumes:
// per-task latency/energy profiles for the paper's two microcontrollers
// (Ambiq Apollo 4 and TI MSP430FR5994), peripheral costs (HM01B0 camera,
// RFM95W LoRa radio, JPEG), JIT-checkpoint costs, and the per-invocation
// runtime overhead of Quetzal's ratio computations with and without the
// hardware module.
//
// The paper's simulator "represented the actual device as a set of tasks
// characterized by their latency and energy values, measured on real
// hardware" (§6.3). Real measurements are unavailable here, so the numbers
// below are calibrated to every anchor the paper publishes:
//
//   - the radio task's end-to-end time ranges from 0.8 s at high power to
//     over 50 s at low power (§2.2) — so the full-image radio option costs
//     0.8 s × 100 mW = 80 mJ (80 mJ / 1.5 mW ≈ 53 s);
//   - the input buffer holds 10 images (Table 1);
//   - the MSP430 runs LeNet variants only (Table 1) and is roughly an
//     order of magnitude slower than the Apollo 4;
//   - ratio-computation costs come from §5.1 verbatim: on the MSP430 the
//     module takes 12 cycles / 3.75 nJ vs 158 cycles / 49.37 nJ for
//     software division; on the Apollo 4, 5 cycles / 0.16 nJ vs 13 cycles
//     / 0.4 nJ for the native divider.
package device

import (
	"fmt"

	"quetzal/internal/model"
)

// MCU describes a microcontroller's fixed characteristics.
type MCU struct {
	Name       string
	ClockHz    float64
	HasDivider bool

	// Per-ratio-computation cost using Quetzal's hardware module.
	ModuleRatioTime, ModuleRatioEnergy float64 // seconds, joules
	// Per-ratio-computation cost using division (software routine when
	// HasDivider is false, native divider otherwise).
	DivRatioTime, DivRatioEnergy float64

	// JIT checkpoint restore cost paid when resuming after a power failure.
	RestoreTime, RestorePower float64
	// IdlePower is the draw while on but waiting (sleep with RAM retained).
	IdlePower float64
}

// Apollo4MCU returns the Ambiq Apollo 4 characteristics (192 MHz, hardware
// divider). Ratio costs are the paper's §5.1 numbers.
func Apollo4MCU() MCU {
	const clock = 192e6
	return MCU{
		Name:              "apollo4",
		ClockHz:           clock,
		HasDivider:        true,
		ModuleRatioTime:   5 / clock,
		ModuleRatioEnergy: 0.16e-9,
		DivRatioTime:      13 / clock,
		DivRatioEnergy:    0.4e-9,
		RestoreTime:       0.005,
		RestorePower:      0.010,
		IdlePower:         50e-6,
	}
}

// MSP430MCU returns the TI MSP430FR5994 characteristics (16 MHz, no
// hardware divider). Ratio costs are the paper's §5.1 numbers.
func MSP430MCU() MCU {
	const clock = 16e6
	return MCU{
		Name:              "msp430fr5994",
		ClockHz:           clock,
		HasDivider:        false,
		ModuleRatioTime:   12 / clock,
		ModuleRatioEnergy: 3.75e-9,
		DivRatioTime:      158 / clock,
		DivRatioEnergy:    49.37e-9,
		RestoreTime:       0.012,
		RestorePower:      0.004,
		IdlePower:         30e-6,
	}
}

// STM32G0MCU returns the STM32G071 characteristics (64 MHz Cortex-M0+, no
// hardware divider — the paper lists it among the divider-less targets in
// §5.1). The software division routine on the M0+ runs in ~45 cycles.
func STM32G0MCU() MCU {
	const clock = 64e6
	return MCU{
		Name:              "stm32g071",
		ClockHz:           clock,
		HasDivider:        false,
		ModuleRatioTime:   8 / clock,
		ModuleRatioEnergy: 1.1e-9,
		DivRatioTime:      45 / clock,
		DivRatioEnergy:    9.6e-9,
		RestoreTime:       0.008,
		RestorePower:      0.006,
		IdlePower:         40e-6,
	}
}

// Profile bundles everything the simulator needs to model one platform
// running the person-detection application.
type Profile struct {
	MCU            MCU
	BufferCapacity int // input buffer size in images (Table 1: 10)

	// Capture pipeline cost per frame: camera readout + pixel differencing
	// + JPEG compression before storing (§6.4: "all systems therefore
	// always compress images before storing in the input buffer").
	CaptureTexe, CapturePexe float64

	// Task option tables, quality-ordered best-first.
	MLOptions    []model.Option
	Compress     model.Option
	RadioOptions []model.Option
}

// Apollo4 returns the Apollo 4 platform profile from Table 1: High-Q
// ML = MobileNetV2, Low-Q ML = LeNet, High-Q radio = full JPEG image,
// Low-Q radio = single byte.
func Apollo4() Profile {
	return Profile{
		MCU:            Apollo4MCU(),
		BufferCapacity: 10,
		CaptureTexe:    0.060,
		CapturePexe:    0.010,
		MLOptions: []model.Option{
			{Name: "mobilenetv2", Texe: 0.85, Pexe: 0.014, FalseNegative: 0.06, FalsePositive: 0.05},
			{Name: "lenet", Texe: 0.35, Pexe: 0.010, FalseNegative: 0.22, FalsePositive: 0.15},
		},
		Compress: model.Option{Name: "jpeg-package", Texe: 0.15, Pexe: 0.008},
		RadioOptions: []model.Option{
			{Name: "full-image", Texe: 0.80, Pexe: 0.150, HighQuality: true},
			{Name: "single-byte", Texe: 0.15, Pexe: 0.030},
		},
	}
}

// MSP430 returns the MSP430FR5994 platform profile from Table 1: High-Q
// ML = Int-16 LeNet, Low-Q ML = Int-8 LeNet, radio as on the Apollo.
func MSP430() Profile {
	return Profile{
		MCU:            MSP430MCU(),
		BufferCapacity: 10,
		CaptureTexe:    0.250,
		CapturePexe:    0.004,
		MLOptions: []model.Option{
			{Name: "lenet-int16", Texe: 1.8, Pexe: 0.0035, FalseNegative: 0.12, FalsePositive: 0.08},
			{Name: "lenet-int8", Texe: 0.7, Pexe: 0.0030, FalseNegative: 0.28, FalsePositive: 0.16},
		},
		Compress: model.Option{Name: "jpeg-package", Texe: 0.50, Pexe: 0.003},
		RadioOptions: []model.Option{
			{Name: "full-image", Texe: 0.80, Pexe: 0.150, HighQuality: true},
			{Name: "single-byte", Texe: 0.15, Pexe: 0.030},
		},
	}
}

// Validate sanity-checks a profile.
func (p Profile) Validate() error {
	if p.BufferCapacity <= 0 {
		return fmt.Errorf("device: buffer capacity must be positive, got %d", p.BufferCapacity)
	}
	if p.CaptureTexe <= 0 || p.CapturePexe <= 0 {
		return fmt.Errorf("device: capture costs must be positive")
	}
	if len(p.MLOptions) == 0 || len(p.RadioOptions) == 0 {
		return fmt.Errorf("device: profile needs ML and radio options")
	}
	for _, o := range append(append([]model.Option{}, p.MLOptions...), p.RadioOptions...) {
		if err := o.Validate(); err != nil {
			return err
		}
	}
	return p.Compress.Validate()
}

// Apollo4MultiQuality returns an Apollo 4 profile that exercises the full
// four-level degradation ladder the §5.1 library supports: three inference
// models and four radio payload sizes (full image, half-resolution,
// thumbnail, single byte). The IBO engine's "highest-quality option that
// clears" rule has real intermediate choices here.
func Apollo4MultiQuality() Profile {
	p := Apollo4()
	p.MLOptions = []model.Option{
		{Name: "mobilenetv2", Texe: 0.85, Pexe: 0.014, FalseNegative: 0.06, FalsePositive: 0.05},
		{Name: "mobilenet-lite", Texe: 0.55, Pexe: 0.012, FalseNegative: 0.12, FalsePositive: 0.09},
		{Name: "lenet", Texe: 0.35, Pexe: 0.010, FalseNegative: 0.22, FalsePositive: 0.15},
	}
	p.RadioOptions = []model.Option{
		{Name: "full-image", Texe: 0.80, Pexe: 0.150, HighQuality: true},
		{Name: "half-res", Texe: 0.40, Pexe: 0.150, HighQuality: true},
		{Name: "thumbnail", Texe: 0.20, Pexe: 0.120},
		{Name: "single-byte", Texe: 0.15, Pexe: 0.030},
	}
	return p
}

// STM32G0 returns an STM32G071 platform profile: between the Apollo 4 and
// the MSP430 in compute capability, with the same radio module. Not part
// of the paper's Table 1 — included to exercise Quetzal's claim of being
// microcontroller-agnostic on a third, divider-less target.
func STM32G0() Profile {
	return Profile{
		MCU:            STM32G0MCU(),
		BufferCapacity: 10,
		CaptureTexe:    0.120,
		CapturePexe:    0.007,
		MLOptions: []model.Option{
			{Name: "mobilenetv2-int8", Texe: 1.6, Pexe: 0.009, FalseNegative: 0.08, FalsePositive: 0.06},
			{Name: "lenet", Texe: 0.5, Pexe: 0.007, FalseNegative: 0.22, FalsePositive: 0.15},
		},
		Compress: model.Option{Name: "jpeg-package", Texe: 0.25, Pexe: 0.006},
		RadioOptions: []model.Option{
			{Name: "full-image", Texe: 0.80, Pexe: 0.150, HighQuality: true},
			{Name: "single-byte", Texe: 0.15, Pexe: 0.030},
		},
	}
}

// Job IDs used by the standard applications.
const (
	DetectJobID = 0
	ReportJobID = 1
)

// PersonDetectionApp assembles the paper's evaluation application for this
// profile as two jobs: a "detect" job whose degradable ML task classifies a
// stored image and spawns the "report" job on positives, and a "report" job
// that packages the image and transmits it with a degradable radio task.
func (p Profile) PersonDetectionApp() *model.App {
	ml := &model.Task{Name: "ml-inference", Kind: model.Classify, Options: p.MLOptions}
	compress := &model.Task{Name: "compress", Kind: model.Compute, Options: []model.Option{p.Compress}}
	// The radio task is resumable: the full-image transmission is a
	// multi-packet LoRa transfer that checkpoints at packet boundaries
	// (Camaroptera-style), so it is not marked Atomic — a single packet
	// fits comfortably within one charge of the 33 mF store.
	radio := &model.Task{Name: "radio", Kind: model.Transmit, Options: p.RadioOptions}
	return &model.App{
		Name: "person-detection",
		Jobs: []*model.Job{
			{ID: DetectJobID, Name: "detect", Tasks: []*model.Task{ml}, SpawnJobID: ReportJobID},
			{ID: ReportJobID, Name: "report", Tasks: []*model.Task{compress, radio}, SpawnJobID: model.NoSpawn},
		},
		EntryJobID:  DetectJobID,
		CaptureTexe: p.CaptureTexe,
		CapturePexe: p.CapturePexe,
	}
}

// FusedPipelineApp assembles a single-job variant where compression and
// radio are conditional on the ML result within the same job — the Figure 5
// structure that exercises per-task execution probabilities. Only the ML
// task is degradable (§5.2: exactly one degradable task per job), so the
// radio always transmits full images.
func (p Profile) FusedPipelineApp() *model.App {
	ml := &model.Task{Name: "ml-inference", Kind: model.Classify, Options: p.MLOptions}
	compress := &model.Task{Name: "compress", Kind: model.Compute, Conditional: true,
		Options: []model.Option{p.Compress}}
	radio := &model.Task{Name: "radio", Kind: model.Transmit, Conditional: true,
		Options: p.RadioOptions[:1]}
	return &model.App{
		Name: "person-detection-fused",
		Jobs: []*model.Job{
			{ID: DetectJobID, Name: "pipeline", Tasks: []*model.Task{ml, compress, radio},
				SpawnJobID: model.NoSpawn},
		},
		EntryJobID:  DetectJobID,
		CaptureTexe: p.CaptureTexe,
		CapturePexe: p.CapturePexe,
	}
}

// InvocationOverhead returns the (time, energy) cost of one scheduler
// invocation on this MCU. useModule selects Quetzal's hardware module;
// otherwise the MCU's division path is used. The bookkeeping factor covers
// the non-ratio work (window updates, comparisons), which profiling in the
// paper shows dominates neither path.
func (m MCU) InvocationOverhead(ratioOps int, useModule bool) (seconds, joules float64) {
	const bookkeepingFactor = 4.0
	var t, e float64
	if useModule {
		t, e = m.ModuleRatioTime, m.ModuleRatioEnergy
	} else {
		t, e = m.DivRatioTime, m.DivRatioEnergy
	}
	n := float64(ratioOps)
	return n * t * bookkeepingFactor, n * e * bookkeepingFactor
}
