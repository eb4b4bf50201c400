package eco

import (
	"reflect"
	"testing"
)

// walkInts calls f on every integer field of v, nested structs
// included, and fails on any other kind so a new field of a kind Add
// cannot sum is noticed here.
func walkInts(t *testing.T, v reflect.Value, path string, f func(path string, field reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkInts(t, v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Int, reflect.Int64:
		f(path, v)
	default:
		t.Fatalf("%s: unhandled field kind %s", path, v.Kind())
	}
}

// TestStatsAddEveryField sets every numeric field of Stats, the nested
// sat.Stats included, to a distinct value and requires Add to double
// each one: a field either hand-written Add forgets fails here.
func TestStatsAddEveryField(t *testing.T) {
	var s Stats
	want := map[string]int64{}
	walkInts(t, reflect.ValueOf(&s).Elem(), "Stats", func(path string, f reflect.Value) {
		v := int64(len(want) + 1)
		f.SetInt(v)
		want[path] = 2 * v
	})
	s.Add(s)
	walkInts(t, reflect.ValueOf(s), "Stats", func(path string, f reflect.Value) {
		if got := f.Int(); got != want[path] {
			t.Errorf("%s = %d after Add, want %d", path, got, want[path])
		}
	})
	if len(want) < 20 {
		t.Fatalf("walked %d fields; the nested sat.Stats was skipped", len(want))
	}
}
