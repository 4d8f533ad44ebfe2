package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// SpanTrace renders wall-clock work spans (sweep runs, not simulated time)
// as Chrome trace_event JSON. Spans are reported at completion — the shape
// the runner pool's OnEvent callback delivers — and assigned greedily to
// the first free lane, so a sweep's trace shows its real parallelism.
//
// SpanTrace is not safe for concurrent use; the pool serializes OnEvent
// callbacks, which is exactly the discipline it needs.
type SpanTrace struct {
	w           io.Writer
	epoch       time.Time
	lanes       []time.Time // per-lane busy-until
	wroteHeader bool
	err         error
}

// NewSpanTrace builds a span trace writing to w; timestamps are relative to
// epoch (pass the sweep's start time).
func NewSpanTrace(w io.Writer, epoch time.Time) *SpanTrace {
	return &SpanTrace{w: w, epoch: epoch}
}

// Record adds one completed span. Attrs are rendered into the event's args;
// values pass through jsonValue, so numbers stay numbers.
func (t *SpanTrace) Record(name string, start time.Time, d time.Duration, attrs ...[2]string) {
	if t.err != nil {
		return
	}
	if start.Before(t.epoch) {
		start = t.epoch
	}
	lane := -1
	for i, busy := range t.lanes {
		if !busy.After(start) {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(t.lanes)
		t.lanes = append(t.lanes, time.Time{})
	}
	t.lanes[lane] = start.Add(d)

	if !t.wroteHeader {
		t.wroteHeader = true
		if _, err := io.WriteString(t.w, `{"displayTimeUnit":"ms","traceEvents":[`+"\n"+
			`{"name":"process_name","ph":"M","pid":1,"args":{"name":"sweep"}}`); err != nil {
			t.err = err
			return
		}
	}
	var args strings.Builder
	for i, a := range attrs {
		if i > 0 {
			args.WriteByte(',')
		}
		fmt.Fprintf(&args, "%q:%s", a[0], jsonValue(a[1]))
	}
	ts := start.Sub(t.epoch).Microseconds()
	dur := d.Microseconds()
	if dur < 1 {
		dur = 1 // Chrome hides zero-width spans entirely
	}
	if _, err := fmt.Fprintf(t.w, ",\n{\"name\":%q,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":1,\"tid\":%d,\"args\":{%s}}",
		name, ts, dur, lane+1, args.String()); err != nil {
		t.err = err
	}
}

// Close writes the JSON trailer and reports any write error.
func (t *SpanTrace) Close() error {
	if t.wroteHeader && t.err == nil {
		if _, err := io.WriteString(t.w, "\n]}\n"); err != nil {
			t.err = err
		}
	}
	return t.err
}
