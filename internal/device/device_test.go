package device

import (
	"testing"

	"quetzal/internal/model"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range []Profile{Apollo4(), MSP430()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.MCU.Name, err)
		}
	}
}

func TestValidateRejectsBrokenProfiles(t *testing.T) {
	p := Apollo4()
	p.BufferCapacity = 0
	if err := p.Validate(); err == nil {
		t.Error("accepted zero buffer capacity")
	}
	p = Apollo4()
	p.CaptureTexe = 0
	if err := p.Validate(); err == nil {
		t.Error("accepted zero capture cost")
	}
	p = Apollo4()
	p.MLOptions = nil
	if err := p.Validate(); err == nil {
		t.Error("accepted missing ML options")
	}
	p = Apollo4()
	p.RadioOptions[0].Texe = -1
	if err := p.Validate(); err == nil {
		t.Error("accepted invalid radio option")
	}
	p = Apollo4()
	p.Compress.Pexe = 0
	if err := p.Validate(); err == nil {
		t.Error("accepted invalid compress option")
	}
}

// The paper's §2.2 anchor: the radio task's end-to-end time ranges from
// 0.8 s at high power to over 50 s at low power. With our calibration,
// S_e2e = max(0.8, 80 mJ / P_in): at 1.5 mW that is ≈ 53 s.
func TestRadioTaskAnchors(t *testing.T) {
	radio := Apollo4().RadioOptions[0]
	if radio.Texe != 0.8 {
		t.Errorf("full-image radio Texe = %g, want 0.8 (paper anchor)", radio.Texe)
	}
	lowPower := radio.Eexe() / 0.0015
	if lowPower < 50 {
		t.Errorf("radio S_e2e at 1.5 mW = %g s, want > 50 (paper anchor)", lowPower)
	}
}

func TestQualityOrdering(t *testing.T) {
	for _, p := range []Profile{Apollo4(), MSP430()} {
		// High-quality ML must be more accurate (lower FN) and more
		// expensive than the degraded option.
		ml := p.MLOptions
		if ml[0].FalseNegative >= ml[1].FalseNegative {
			t.Errorf("%s: high-Q ML FN %g not better than low-Q %g",
				p.MCU.Name, ml[0].FalseNegative, ml[1].FalseNegative)
		}
		if ml[0].Eexe() <= ml[1].Eexe() {
			t.Errorf("%s: high-Q ML energy %g not above low-Q %g",
				p.MCU.Name, ml[0].Eexe(), ml[1].Eexe())
		}
		r := p.RadioOptions
		if !r[0].HighQuality || r[1].HighQuality {
			t.Errorf("%s: radio quality flags wrong", p.MCU.Name)
		}
		if r[0].Eexe() <= r[1].Eexe() {
			t.Errorf("%s: full-image radio energy %g not above single-byte %g",
				p.MCU.Name, r[0].Eexe(), r[1].Eexe())
		}
	}
}

func TestMSP430SlowerThanApollo(t *testing.T) {
	a, m := Apollo4(), MSP430()
	if m.CaptureTexe <= a.CaptureTexe {
		t.Error("MSP430 capture should be slower than Apollo 4")
	}
	if m.MLOptions[0].Texe <= a.MLOptions[1].Texe {
		t.Error("MSP430 high-Q ML should be slower than Apollo 4 LeNet")
	}
}

// Paper §5.1 ratio-cost anchors, verbatim.
func TestRatioCostAnchors(t *testing.T) {
	msp := MSP430MCU()
	if msp.HasDivider {
		t.Error("MSP430 must not have a hardware divider")
	}
	// Software division: 158 cycles, 49.37 nJ; module: 12 cycles, 3.75 nJ.
	if got := msp.DivRatioTime * msp.ClockHz; got < 157.9 || got > 158.1 {
		t.Errorf("MSP430 division cycles = %g, want 158", got)
	}
	if msp.DivRatioEnergy != 49.37e-9 || msp.ModuleRatioEnergy != 3.75e-9 {
		t.Errorf("MSP430 ratio energies = %g/%g", msp.DivRatioEnergy, msp.ModuleRatioEnergy)
	}
	// Energy saving ≈ 92.5 %.
	saving := 1 - msp.ModuleRatioEnergy/msp.DivRatioEnergy
	if saving < 0.92 || saving > 0.93 {
		t.Errorf("MSP430 module energy saving = %.3f, want ≈ 0.925", saving)
	}

	ap := Apollo4MCU()
	if !ap.HasDivider {
		t.Error("Apollo 4 must have a hardware divider")
	}
	// Divider: 13 cycles, 0.4 nJ; module: 5 cycles, 0.16 nJ → 60 % saving.
	saving = 1 - ap.ModuleRatioEnergy/ap.DivRatioEnergy
	if saving < 0.55 || saving > 0.65 {
		t.Errorf("Apollo module energy saving = %.3f, want ≈ 0.6", saving)
	}
}

func TestPersonDetectionAppStructure(t *testing.T) {
	app := Apollo4().PersonDetectionApp()
	if err := app.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(app.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(app.Jobs))
	}
	detect := app.JobByID(DetectJobID)
	if detect.SpawnJobID != ReportJobID {
		t.Errorf("detect spawns %d, want %d", detect.SpawnJobID, ReportJobID)
	}
	if di := detect.DegradableTask(); di != 0 || detect.Tasks[di].Kind != model.Classify {
		t.Errorf("detect degradable task = %d (%v)", di, detect.Tasks[0].Kind)
	}
	report := app.JobByID(ReportJobID)
	if di := report.DegradableTask(); di != 1 || report.Tasks[di].Kind != model.Transmit {
		t.Errorf("report degradable task = %d", di)
	}
	if app.EntryJobID != DetectJobID {
		t.Errorf("entry job = %d, want %d", app.EntryJobID, DetectJobID)
	}
}

func TestFusedPipelineAppStructure(t *testing.T) {
	app := MSP430().FusedPipelineApp()
	if err := app.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(app.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(app.Jobs))
	}
	job := app.Jobs[0]
	if len(job.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3", len(job.Tasks))
	}
	if !job.Tasks[1].Conditional || !job.Tasks[2].Conditional {
		t.Error("compress/radio must be conditional on the classifier")
	}
	if deg := job.DegradableTask(); deg != 0 {
		t.Errorf("degradable task = %d, want 0 (ML only)", deg)
	}
}

func TestInvocationOverheadOrdering(t *testing.T) {
	for _, mcu := range []MCU{Apollo4MCU(), MSP430MCU()} {
		tm, em := mcu.InvocationOverhead(10, true)
		td, ed := mcu.InvocationOverhead(10, false)
		if tm <= 0 || em <= 0 {
			t.Errorf("%s: module overhead non-positive", mcu.Name)
		}
		if tm >= td || em >= ed {
			t.Errorf("%s: module overhead (%g s, %g J) not below division (%g s, %g J)",
				mcu.Name, tm, em, td, ed)
		}
	}
}

// The §5.1 claim shape: with 10 invocations/s and a 32-task/4-option app,
// module overhead on the MSP430 is far below 1 % of CPU time while the
// division path is several percent.
func TestOverheadClaimShape(t *testing.T) {
	mcu := MSP430MCU()
	ratioOps := 32 + 4
	tm, _ := mcu.InvocationOverhead(ratioOps, true)
	td, _ := mcu.InvocationOverhead(ratioOps, false)
	moduleCPU := tm * 10 // fraction of each second
	divCPU := td * 10
	if moduleCPU > 0.004 {
		t.Errorf("module CPU share = %.4f, want ≤ 0.004 (paper: 0.4%%)", moduleCPU)
	}
	if divCPU < 10*moduleCPU {
		t.Errorf("division CPU share %.5f not ≫ module share %.5f", divCPU, moduleCPU)
	}
}
