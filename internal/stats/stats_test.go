package stats

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fillDistinct gives every integer field of a Snapshot (one level of
// nested structs) the value base + its running index, and returns the
// number of fields it set. Any other field kind fails the test: the
// schema promises flat all-integer groups.
func fillDistinct(t *testing.T, s *Snapshot, base int64) int {
	t.Helper()
	n := 0
	v := reflect.ValueOf(s).Elem()
	for g := 0; g < v.NumField(); g++ {
		group := v.Field(g)
		if group.Kind() != reflect.Struct {
			t.Fatalf("Snapshot.%s is a %v, want a struct of counters", v.Type().Field(g).Name, group.Kind())
		}
		for i := 0; i < group.NumField(); i++ {
			if !group.Field(i).CanInt() {
				t.Fatalf("%s.%s is a %v, want a signed integer", group.Type(), group.Type().Field(i).Name, group.Field(i).Kind())
			}
			group.Field(i).SetInt(base + int64(n))
			n++
		}
	}
	return n
}

// TestAggregateCoversEveryField: with every counter of two snapshots
// set to a distinct value, Aggregate returns the sum field by field —
// the max for a high-water mark. A counter added to the schema without
// its Accumulate line fails here, not in a dashboard.
func TestAggregateCoversEveryField(t *testing.T) {
	var a, b Snapshot
	n := fillDistinct(t, &a, 1)
	fillDistinct(t, &b, 1000)
	if n == 0 {
		t.Fatal("Snapshot has no counters")
	}
	got := reflect.ValueOf(Aggregate([]Snapshot{a, b}))
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	for g := 0; g < got.NumField(); g++ {
		for i := 0; i < got.Field(g).NumField(); i++ {
			name := got.Field(g).Type().Field(i).Name
			x, y := av.Field(g).Field(i).Int(), bv.Field(g).Field(i).Int()
			want, rule := x+y, "sum"
			if strings.HasSuffix(name, "HighWater") {
				want, rule = max(x, y), "max"
			}
			if v := got.Field(g).Field(i).Int(); v != want {
				t.Errorf("%s.%s: Aggregate(%d, %d) = %d, want the %s %d",
					got.Type().Field(g).Name, name, x, y, v, rule, want)
			}
		}
	}
}

// TestWriteMetricsOneLinePerField: the plaintext exposition carries
// every counter exactly once, under a name of its own, with its value.
func TestWriteMetricsOneLinePerField(t *testing.T) {
	var s Snapshot
	n := fillDistinct(t, &s, 1)
	var buf bytes.Buffer
	s.WriteMetrics(&buf, "p")
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d lines for %d counters", len(lines), n)
	}
	names := make(map[string]bool)
	values := make(map[string]bool)
	for _, line := range lines {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "p_") {
			t.Errorf("malformed line %q", line)
		}
		if names[name] {
			t.Errorf("metric %s emitted twice", name)
		}
		if values[value] {
			t.Errorf("value %s emitted twice: two lines read one field", value)
		}
		names[name], values[value] = true, true
	}
}

// TestAccumulateReadsTheStruct: the folding rule is read off the struct
// it is given — sum, or max for a field named …HighWater — not off a list
// of the fields that existed when it was written. A struct the package
// has never seen folds correctly, so a counter added to the schema
// (FillStats.DiscardedBlocks was the first) is one field on every surface.
func TestAccumulateReadsTheStruct(t *testing.T) {
	type later struct {
		Old            int64
		BrandNew       int64
		DepthHighWater int
	}
	a, b := later{1, 2, 4}, later{10, 20, 9}
	accumulate(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b))
	if want := (later{11, 22, 9}); a != want {
		t.Errorf("accumulate = %+v, want %+v", a, want)
	}
	accumulate(reflect.ValueOf(&a).Elem(), reflect.ValueOf(later{DepthHighWater: 3}))
	if want := (later{11, 22, 9}); a != want {
		t.Errorf("a lower high-water mark moved the fold: %+v, want %+v", a, want)
	}

	f := FillStats{DiscardedBlocks: 5, WritebackQueueHighWater: 7}
	Fold(&f, FillStats{DiscardedBlocks: 6, WritebackQueueHighWater: 3})
	if f.DiscardedBlocks != 11 || f.WritebackQueueHighWater != 7 {
		t.Errorf("Fold of FillStats = %+v, want 11 discarded, high water 7", f)
	}
}
