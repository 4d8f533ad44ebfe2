package policy

import (
	"strings"
	"testing"

	"quetzal/internal/core"
	"quetzal/internal/device"
	"quetzal/internal/trace"
)

func testContext() Context {
	events := trace.GenerateEvents(trace.DefaultEventConfig(5, 20, 1))
	return Context{
		App:    device.Apollo4().PersonDetectionApp(),
		Power:  trace.Constant{P: 0.02},
		Events: events,
	}
}

// TestLookupRejects pins the registry's reject behavior: unknown names,
// near-miss spellings of the fixed-NN family, and case/whitespace variants
// must all fail, mirroring the strictness of ParseEngineKind — two spellings
// of one policy would split the run cache and the sha256 run-id space.
func TestLookupRejects(t *testing.T) {
	cases := []struct {
		name string
		id   string
	}{
		{name: "empty", id: ""},
		{name: "unknown", id: "magic"},
		{name: "long form", id: "quetzal"},
		{name: "upper case", id: "QZ"},
		{name: "trailing space", id: "qz "},
		{name: "leading space", id: " qz"},
		{name: "fixed zero", id: "fixed-0"},
		{name: "fixed above 100", id: "fixed-101"},
		{name: "fixed padded", id: "fixed-007"},
		{name: "fixed suffixed", id: "fixed-25x"},
		{name: "fixed negative", id: "fixed--5"},
		{name: "fixed bare", id: "fixed-"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := Lookup(tc.id); ok {
				t.Fatalf("Lookup(%q) resolved, want reject", tc.id)
			}
			if Known(tc.id) {
				t.Fatalf("Known(%q) = true, want false", tc.id)
			}
			if _, _, err := Build(tc.id, testContext()); err == nil {
				t.Fatalf("Build(%q) succeeded, want error", tc.id)
			} else if !strings.Contains(err.Error(), "unknown policy") {
				t.Fatalf("Build(%q) error = %v, want 'unknown policy'", tc.id, err)
			}
		})
	}
}

// TestNamesDeterministic pins the enumeration order: it is the registry
// declaration order, stable across calls (league tables and CLI listings
// render from it).
func TestNamesDeterministic(t *testing.T) {
	a, b := Names(), Names()
	if len(a) == 0 {
		t.Fatal("Names() is empty")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Names() order unstable at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if a[0] != Quetzal {
		t.Fatalf("Names()[0] = %q, want %q", a[0], Quetzal)
	}
}

// TestEveryRegisteredPolicyBuilds constructs every enumerable policy plus a
// fixed-NN sample through the one Build path the whole harness uses.
func TestEveryRegisteredPolicyBuilds(t *testing.T) {
	ids := append(Names(), "fixed-25", "fixed-1", "fixed-100")
	for _, id := range ids {
		ctl, bufCap, err := Build(id, testContext())
		if err != nil {
			t.Fatalf("Build(%q): %v", id, err)
		}
		if ctl == nil {
			t.Fatalf("Build(%q) returned nil controller", id)
		}
		if ctl.Name() == "" {
			t.Fatalf("Build(%q): empty controller name", id)
		}
		if id == Ideal && bufCap != IdealBufferCapacity {
			t.Fatalf("Build(%q) buffer capacity = %d, want %d", id, bufCap, IdealBufferCapacity)
		}
		if ops, _ := ctl.RatioOps(); ops < 0 {
			t.Fatalf("Build(%q): negative RatioOps %d", id, ops)
		}
	}
}

// TestQuetzalUnwrapped pins that the quetzal family builds the raw
// *core.Runtime, not an adapter: the engine type-asserts it for the
// golden-pinned "pid" event-log line, so wrapping would silently change
// every golden fingerprint.
func TestQuetzalUnwrapped(t *testing.T) {
	for _, id := range []string{Quetzal, QuetzalDiv, QuetzalAvg, QuetzalFCFS,
		QuetzalLCFS, QuetzalCapture, QuetzalNoPID, QuetzalNoIBO} {
		ctl, _, err := Build(id, testContext())
		if err != nil {
			t.Fatalf("Build(%q): %v", id, err)
		}
		if _, ok := ctl.(*core.Runtime); !ok {
			t.Fatalf("Build(%q) = %T, want *core.Runtime", id, ctl)
		}
	}
}

// TestBuildRequiresApp pins the one Context requirement every policy shares.
func TestBuildRequiresApp(t *testing.T) {
	if _, _, err := Build(Quetzal, Context{}); err == nil || !strings.Contains(err.Error(), "App is required") {
		t.Fatalf("Build without App: err = %v, want 'App is required'", err)
	}
}

// TestPZIRequiresTraces pins the oracular baseline's extra requirement.
func TestPZIRequiresTraces(t *testing.T) {
	ctx := testContext()
	ctx.Power, ctx.Events = nil, nil
	if _, _, err := Build(PZI, ctx); err == nil {
		t.Fatal("Build(pzi) without traces succeeded, want error")
	}
}

// TestFixedThresholdRoundTrip pins the id form used across the harness.
func TestFixedThresholdRoundTrip(t *testing.T) {
	if id := FixedThresholdID(0.25); id != "fixed-25" {
		t.Fatalf("FixedThresholdID(0.25) = %q, want fixed-25", id)
	}
	if id := FixedThresholdID(1.0); id != "fixed-100" {
		t.Fatalf("FixedThresholdID(1.0) = %q, want fixed-100", id)
	}
}

// TestReplaySensitivity pins which strategies opt out of the lockstep crawl
// replay: the store-reading ones must, and EnSuRe (λ- and pin-driven only)
// must not.
func TestReplaySensitivity(t *testing.T) {
	cases := []struct {
		id   string
		want bool
	}{
		{MDPName, true},
		{InterweaveName, true},
		{EnSuReName, false},
	}
	for _, tc := range cases {
		ctl, _, err := Build(tc.id, testContext())
		if err != nil {
			t.Fatalf("Build(%q): %v", tc.id, err)
		}
		rs, ok := ctl.(core.ReplaySensitive)
		if !ok {
			t.Fatalf("Build(%q) = %T does not implement core.ReplaySensitive", tc.id, ctl)
		}
		if got := rs.ReplaySensitive(); got != tc.want {
			t.Fatalf("%s ReplaySensitive() = %v, want %v", tc.id, got, tc.want)
		}
	}
}
