package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tb := New("Demo", "system", "value")
	tb.AddRow("noadapt", "10")
	tb.AddRow("quetzal-long-name", "2")
	tb.AddNote("note %d", 1)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"== Demo ==", "system", "quetzal-long-name", "* note 1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	lines := strings.Split(out, "\n")
	// Header and first data row must align the second column.
	var header, row string
	for _, l := range lines {
		if strings.HasPrefix(l, "system") {
			header = l
		}
		if strings.HasPrefix(l, "noadapt") {
			row = l
		}
	}
	if strings.Index(header, "value") != strings.Index(row, "10") {
		t.Errorf("columns misaligned:\n%q\n%q", header, row)
	}
}

func TestRenderShortRow(t *testing.T) {
	tb := New("", "a", "b", "c")
	tb.AddRow("only")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "== ") {
		t.Error("empty title rendered a header")
	}
}

func TestRenderCSV(t *testing.T) {
	tb := New("T", "a", "b")
	tb.AddRow("1", "2")
	tb.AddRow("3") // short row padded
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct{ got, want string }{
		{F(0.123456), "0.123"},
		{Pct(0.4567), "45.7%"},
		{N(42), "42"},
		{X(2.918), "2.92x"},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %q, want %q", i, c.got, c.want)
		}
	}
}

// A zero denominator must render as "n/a": the old harness mapped it to a
// denominator of 1, which showed an unknowable cell as a measured "0.0%".
func TestPctOfZeroDenominator(t *testing.T) {
	if got := PctOf(3, 0); got != "n/a" {
		t.Errorf("PctOf(3, 0) = %q, want n/a", got)
	}
	if got := PctOf(0, 0); got != "n/a" {
		t.Errorf("PctOf(0, 0) = %q, want n/a", got)
	}
	if got := PctOf(1, 4); got != "25.0%" {
		t.Errorf("PctOf(1, 4) = %q, want 25.0%%", got)
	}
}

func TestRenderMarkdown(t *testing.T) {
	tb := New("Title", "a", "b")
	tb.AddRow("1", "2")
	tb.AddRow("3") // short row padded
	tb.AddNote("a note")
	var buf bytes.Buffer
	if err := tb.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"### Title", "| a | b |", "|---|---|", "| 1 | 2 |", "| 3 |  |", "- a note"} {
		if !strings.Contains(out, frag) {
			t.Errorf("markdown missing %q:\n%s", frag, out)
		}
	}
}
