package experiments

import (
	"testing"

	"quetzal/internal/engine"
	"quetzal/internal/sim"
)

// TestCheckedRunsReplayCrawl: with checks on, the lockstep engine still
// replays the brown-out crawl of Table 1 and faulty-hardware runs, and the
// replay changes neither the results nor what the invariant checker saw —
// its step count, maximum drift and peak occupancy equal those of the
// replay-off reference, the same run carrying a no-op observer.
func TestCheckedRunsReplayCrawl(t *testing.T) {
	s := DefaultSetup()
	s.NumEvents = 100
	s.Seed = 1 // a seed whose less-crowded runs crawl at the store floor
	s.Engine = sim.Lockstep
	for _, tc := range []struct {
		env    Environment
		system string
	}{
		{LessCrowded, SysQuetzal},
		{LessCrowded, SysNoAdapt},
		// At this seed a faulty na run crawls through ~2e7 steps; one
		// faulty policy is enough.
		{Faulty, SysQuetzal},
	} {
		env, system := tc.env, tc.system
		t.Run(env.Name+"/"+system, func(t *testing.T) {
			run := func(replayOff bool) *sim.Simulator {
				power, events := s.Traces(env)
				sm, err := s.build(system, env, nil, power, events)
				if err != nil {
					t.Fatal(err)
				}
				if replayOff {
					sm.Machine().Observe(engine.FuncObserver{})
				}
				if _, err := sm.Run(); err != nil {
					t.Fatal(err)
				}
				return sm
			}
			ref, got := run(true), run(false)
			t.Logf("replayed %d of %d checked steps", got.Machine().ReplayedSteps(), got.Checker().Steps())
			if n := ref.Machine().ReplayedSteps(); n != 0 {
				t.Fatalf("reference replayed %d steps", n)
			}
			if got.Machine().ReplayedSteps() == 0 {
				t.Error("checked run never replayed the crawl")
			}
			if got.Results() != ref.Results() {
				t.Errorf("results diverged from the replay-off reference:\n%+v\n%+v", got.Results(), ref.Results())
			}
			c, rc := got.Checker(), ref.Checker()
			if c.Steps() != rc.Steps() || c.MaxDriftJ() != rc.MaxDriftJ() || c.PeakBufferLen() != rc.PeakBufferLen() {
				t.Errorf("checker saw steps %d, drift %g, peak %d; reference %d, %g, %d",
					c.Steps(), c.MaxDriftJ(), c.PeakBufferLen(), rc.Steps(), rc.MaxDriftJ(), rc.PeakBufferLen())
			}
		})
	}
}
