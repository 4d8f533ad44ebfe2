package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanTraceLanes(t *testing.T) {
	var sb strings.Builder
	epoch := time.Unix(1000, 0)
	tr := NewSpanTrace(&sb, epoch)

	// Two overlapping spans need two lanes; a third starting after both end
	// reuses lane 1.
	tr.Record("run-a", epoch, 100*time.Millisecond, [2]string{"key", "a"})
	tr.Record("run-b", epoch.Add(50*time.Millisecond), 100*time.Millisecond)
	tr.Record("run-c", epoch.Add(300*time.Millisecond), 50*time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("span trace is not valid JSON: %v\n%s", err, sb.String())
	}
	lanes := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.Name] = ev.Tid
			if ev.Dur <= 0 {
				t.Errorf("%s: non-positive dur %d", ev.Name, ev.Dur)
			}
		}
	}
	if len(lanes) != 3 {
		t.Errorf("trace holds %d spans, want 3", len(lanes))
	}
	if lanes["run-a"] == lanes["run-b"] {
		t.Errorf("overlapping spans share lane %d", lanes["run-a"])
	}
	if lanes["run-c"] != lanes["run-a"] {
		t.Errorf("run-c on lane %d, want to reuse lane %d", lanes["run-c"], lanes["run-a"])
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "run-a" {
			if ev.Args["key"] != "a" {
				t.Errorf("run-a args = %v", ev.Args)
			}
		}
	}
}

func TestSpanTraceZeroDuration(t *testing.T) {
	var sb strings.Builder
	epoch := time.Unix(1000, 0)
	tr := NewSpanTrace(&sb, epoch)
	tr.Record("cache-hit", epoch, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"dur":1`) {
		t.Errorf("zero-duration span not widened to 1 µs:\n%s", sb.String())
	}
}

func TestSpanTraceEmpty(t *testing.T) {
	var sb strings.Builder
	tr := NewSpanTrace(&sb, time.Unix(1000, 0))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("empty trace wrote output: %q", sb.String())
	}
}
