package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewStoreValidation(t *testing.T) {
	bad := []StoreConfig{
		{Capacitance: 0, VMax: 3, VOn: 2, VOff: 1, HarvestEfficiency: 0.8},
		{Capacitance: 0.033, VMax: 1, VOn: 2, VOff: 1, HarvestEfficiency: 0.8},  // VMax < VOn
		{Capacitance: 0.033, VMax: 3, VOn: 1, VOff: 2, HarvestEfficiency: 0.8},  // VOn < VOff
		{Capacitance: 0.033, VMax: 3, VOn: 2, VOff: -1, HarvestEfficiency: 0.8}, // VOff < 0
		{Capacitance: 0.033, VMax: 3, VOn: 2, VOff: 1, HarvestEfficiency: 0},
		{Capacitance: 0.033, VMax: 3, VOn: 2, VOff: 1, HarvestEfficiency: 1.2},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewStore did not panic", i)
				}
			}()
			NewStore(cfg)
		}()
	}
}

func TestStartsFullAndOn(t *testing.T) {
	s := NewStore(DefaultConfig())
	if !s.On() {
		t.Error("store should start on")
	}
	if math.Abs(s.Voltage()-3.0) > 1e-9 {
		t.Errorf("Voltage = %g, want 3.0 (full)", s.Voltage())
	}
	// ½·0.033·(3.0²−1.8²) = 95.04 mJ usable.
	want := 0.5 * 0.033 * (3.0*3.0 - 1.8*1.8)
	if math.Abs(s.UsableCapacity()-want) > 1e-12 {
		t.Errorf("UsableCapacity = %g, want %g", s.UsableCapacity(), want)
	}
	if math.Abs(s.UsableEnergy()-want) > 1e-12 {
		t.Errorf("UsableEnergy = %g, want %g (full store)", s.UsableEnergy(), want)
	}
}

func TestDrawAccountsEnergy(t *testing.T) {
	s := NewStore(DefaultConfig())
	before := s.Energy()
	if frac := s.Draw(0.010, 1.0); frac != 1 { // 10 mW for 1 s = 10 mJ
		t.Fatalf("Draw returned %g, want 1", frac)
	}
	if got := before - s.Energy(); math.Abs(got-0.010) > 1e-12 {
		t.Errorf("drew %g J, want 0.010", got)
	}
	if got := s.Stats().ConsumedJ; math.Abs(got-0.010) > 1e-12 {
		t.Errorf("ConsumedJ = %g, want 0.010", got)
	}
}

func TestBrownOutAndPartialStep(t *testing.T) {
	s := NewStore(DefaultConfig())
	usable := s.UsableEnergy()
	// Draw slightly more than everything in one step.
	frac := s.Draw(usable*2, 1.0)
	if frac <= 0 || frac >= 1 {
		t.Fatalf("partial draw fraction = %g, want in (0,1)", frac)
	}
	if math.Abs(frac-0.5) > 1e-9 {
		t.Errorf("fraction = %g, want 0.5 (half the requested energy available)", frac)
	}
	if s.On() {
		t.Error("store should have browned out")
	}
	if s.UsableEnergy() != 0 {
		t.Errorf("UsableEnergy after brownout = %g, want 0", s.UsableEnergy())
	}
	if got := s.Stats().Brownouts; got != 1 {
		t.Errorf("Brownouts = %d, want 1", got)
	}
	// Off store supplies nothing.
	if frac := s.Draw(0.001, 1); frac != 0 {
		t.Errorf("Draw while off = %g, want 0", frac)
	}
}

func TestHysteresisRestart(t *testing.T) {
	cfg := DefaultConfig()
	s := NewStore(cfg)
	s.Draw(1000, 1) // force brown-out
	if s.On() {
		t.Fatal("expected off")
	}
	// Harvest up to just below VOn: still off.
	eOn := 0.5 * cfg.Capacitance * cfg.VOn * cfg.VOn
	eOff := 0.5 * cfg.Capacitance * cfg.VOff * cfg.VOff
	needed := (eOn - eOff) / cfg.HarvestEfficiency
	s.Harvest(needed*0.9, 1)
	if s.On() {
		t.Error("turned on below VOn")
	}
	s.Harvest(needed*0.2, 1)
	if !s.On() {
		t.Error("did not turn on at VOn")
	}
	if v := s.Voltage(); v < cfg.VOn-1e-9 {
		t.Errorf("voltage %g below VOn %g after restart", v, cfg.VOn)
	}
}

func TestHarvestEfficiencyAndRegulation(t *testing.T) {
	cfg := DefaultConfig()
	s := NewStore(cfg)
	s.Draw(0.010, 1) // make 10 mJ of room
	s.Harvest(0.010, 1)
	// 10 mW·1s at 80% = 8 mJ accepted.
	if got := s.Stats().HarvestedJ; math.Abs(got-0.008) > 1e-12 {
		t.Errorf("HarvestedJ = %g, want 0.008", got)
	}
	// Now overfill: 10 mJ offered post-efficiency but only 2 mJ of room.
	s.Harvest(0.0125, 1)
	st := s.Stats()
	if math.Abs(st.HarvestedJ-0.010) > 1e-12 {
		t.Errorf("HarvestedJ = %g, want 0.010 (clamped at full)", st.HarvestedJ)
	}
	if math.Abs(st.WastedJ-0.008) > 1e-12 {
		t.Errorf("WastedJ = %g, want 0.008", st.WastedJ)
	}
	if math.Abs(s.Voltage()-cfg.VMax) > 1e-9 {
		t.Errorf("Voltage = %g, want clamped at VMax %g", s.Voltage(), cfg.VMax)
	}
}

func TestHarvestIgnoresNonPositive(t *testing.T) {
	s := NewStore(DefaultConfig())
	s.Draw(0.010, 1)
	before := s.Energy()
	s.Harvest(0, 1)
	s.Harvest(-1, 1)
	s.Harvest(1, 0)
	if s.Energy() != before {
		t.Error("non-positive harvest changed stored energy")
	}
}

func TestSetFraction(t *testing.T) {
	s := NewStore(DefaultConfig())
	s.SetFraction(0)
	if s.On() || s.UsableEnergy() > 1e-15 {
		t.Errorf("SetFraction(0): on=%v usable=%g, want off/0", s.On(), s.UsableEnergy())
	}
	s.SetFraction(1)
	if !s.On() || math.Abs(s.UsableEnergy()-s.UsableCapacity()) > 1e-12 {
		t.Errorf("SetFraction(1): on=%v usable=%g", s.On(), s.UsableEnergy())
	}
	s.SetFraction(-5)
	if s.UsableEnergy() != 0 {
		t.Error("SetFraction clamps below 0")
	}
	s.SetFraction(7)
	if math.Abs(s.UsableEnergy()-s.UsableCapacity()) > 1e-12 {
		t.Error("SetFraction clamps above 1")
	}
}

// Property: energy conservation — initial + harvested = current + consumed,
// and voltage stays within [0, VMax].
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(DefaultConfig())
		initial := s.Energy()
		for i := 0; i < int(ops); i++ {
			if rng.Intn(2) == 0 {
				s.Harvest(rng.Float64()*0.2, 0.001)
			} else {
				s.Draw(rng.Float64()*0.3, 0.001)
			}
			if s.Voltage() > s.Config().VMax+1e-9 || s.Voltage() < 0 {
				return false
			}
		}
		st := s.Stats()
		lhs := initial + st.HarvestedJ
		rhs := s.Energy() + st.ConsumedJ
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the hysteresis invariant — whenever the store reports On, the
// voltage is above VOff; whenever it transitions off→on, voltage ≥ VOn.
func TestPropertyHysteresis(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(DefaultConfig())
		cfg := s.Config()
		prevOn := s.On()
		for i := 0; i < int(ops); i++ {
			if rng.Intn(2) == 0 {
				s.Harvest(rng.Float64()*0.5, 0.01)
			} else {
				s.Draw(rng.Float64()*0.5, 0.01)
			}
			on := s.On()
			if on && s.Voltage() < cfg.VOff-1e-9 {
				return false
			}
			if !prevOn && on && s.Voltage() < cfg.VOn-1e-9 {
				return false
			}
			prevOn = on
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDrawPriority(t *testing.T) {
	s := NewStore(DefaultConfig())
	// Priority draw works like Draw when energy is plentiful.
	if frac := s.DrawPriority(0.010, 1.0); frac != 1 {
		t.Errorf("DrawPriority = %g, want 1", frac)
	}
	// Non-positive requests are free.
	if frac := s.DrawPriority(0, 1); frac != 1 {
		t.Errorf("DrawPriority(0) = %g, want 1", frac)
	}
	if frac := s.DrawPriority(1, -1); frac != 1 {
		t.Errorf("DrawPriority(dt<0) = %g, want 1", frac)
	}
	// It keeps working after the compute domain browns out...
	s.Draw(1000, 1)
	if s.On() {
		t.Fatal("expected brown-out")
	}
	s.Harvest(0.010, 1) // 8 mJ back, still below VOn
	if s.On() {
		t.Fatal("hysteresis should keep compute off")
	}
	before := s.Energy()
	if frac := s.DrawPriority(0.004, 1.0); frac != 1 {
		t.Errorf("DrawPriority while off = %g, want 1", frac)
	}
	if got := before - s.Energy(); math.Abs(got-0.004) > 1e-12 {
		t.Errorf("priority drew %g J, want 0.004", got)
	}
	if s.On() {
		t.Error("DrawPriority flipped the hysteresis state on")
	}
	// ...drains only to the floor, returning a partial fraction...
	frac := s.DrawPriority(1.0, 1.0)
	if frac <= 0 || frac >= 1 {
		t.Errorf("oversized priority draw fraction = %g, want in (0,1)", frac)
	}
	if s.UsableEnergy() != 0 {
		t.Errorf("UsableEnergy = %g after drain, want 0", s.UsableEnergy())
	}
	// ...and reports 0 once pinned at the floor.
	if frac := s.DrawPriority(0.001, 1.0); frac != 0 {
		t.Errorf("DrawPriority at floor = %g, want 0", frac)
	}
	// Energy conservation still holds across both draw paths.
	st := s.Stats()
	if st.ConsumedJ <= 0 {
		t.Error("priority draws not counted as consumption")
	}
}

func TestLeakage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeakagePower = 0.001 // 1 mW self-discharge
	s := NewStore(cfg)
	start := s.Energy()
	// 10 s with no harvest offered: Harvest(0, dt) still applies leakage.
	for i := 0; i < 10; i++ {
		s.Harvest(0, 1)
	}
	if got := start - s.Energy(); math.Abs(got-0.010) > 1e-12 {
		t.Errorf("leaked %g J over 10 s, want 0.010", got)
	}
	if got := s.Stats().LeakedJ; math.Abs(got-0.010) > 1e-12 {
		t.Errorf("LeakedJ = %g, want 0.010", got)
	}
	// Leakage eventually browns the device out and keeps draining below
	// the floor, all the way to empty.
	for i := 0; i < 200000 && s.Energy() > 0; i++ {
		s.Harvest(0, 1)
	}
	if s.Energy() != 0 {
		t.Errorf("Energy = %g after prolonged leakage, want 0", s.Energy())
	}
	if s.On() {
		t.Error("device still on with an empty store")
	}
	if s.Stats().Brownouts == 0 {
		t.Error("leakage brown-out not counted")
	}
	// Conservation including leakage.
	st := s.Stats()
	if math.Abs((start+st.HarvestedJ)-(s.Energy()+st.ConsumedJ+st.LeakedJ)) > 1e-9 {
		t.Error("conservation with leakage violated")
	}
}

func TestLeakageValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeakagePower = -1
	defer func() {
		if recover() == nil {
			t.Error("NewStore accepted negative leakage")
		}
	}()
	NewStore(cfg)
}
