package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 2.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.Contains(lines[3], "alpha") || !strings.Contains(lines[4], "2.500") {
		t.Errorf("rows wrong:\n%s", out)
	}
	// Columns align: header and row cells start at the same offset.
	if strings.Index(lines[1], "value") != strings.Index(lines[3], "1") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title produced a blank line")
	}
}

func TestSeriesAggregates(t *testing.T) {
	var s Series
	for _, v := range []float64{1, 2, 4} {
		s.Add(v)
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if g := s.GeoMean(); math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", g)
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if s.GeoMean() != 0 {
		t.Error("empty series aggregates nonzero")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Error("empty Min/Max not infinite")
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	s := Series{Values: []float64{1, 0}}
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	s.GeoMean()
}

func TestRatio(t *testing.T) {
	if Ratio(3, 2) != "1.50x" {
		t.Errorf("Ratio = %q", Ratio(3, 2))
	}
	if Ratio(1, 0) != "inf" {
		t.Errorf("Ratio by zero = %q", Ratio(1, 0))
	}
}
