package eco

import "testing"

func TestParseNames(t *testing.T) {
	for _, c := range []struct {
		name    string
		support SupportAlgo
		ok      bool
	}{
		{"final", SupportAnalyzeFinal, true},
		{"minimize", SupportMinimize, true},
		{"exact", SupportExact, true},
		{"EXACT", SupportExact, true},
		{"Minimize", SupportMinimize, true},
		{"", 0, false},
		{"analyze_final", 0, false},
		{"cubes", 0, false},
	} {
		got, err := ParseSupportAlgo(c.name)
		if (err == nil) != c.ok || (c.ok && got != c.support) {
			t.Errorf("ParseSupportAlgo(%q) = %v, %v; want %v, ok=%v", c.name, got, err, c.support, c.ok)
		}
	}
	for _, c := range []struct {
		name  string
		patch PatchMethod
		ok    bool
	}{
		{"cubes", PatchCubeEnum, true},
		{"interp", PatchInterpolation, true},
		{"Interp", PatchInterpolation, true},
		{"CUBES", PatchCubeEnum, true},
		{"", 0, false},
		{"interpolation", 0, false},
		{"exact", 0, false},
	} {
		got, err := ParsePatchMethod(c.name)
		if (err == nil) != c.ok || (c.ok && got != c.patch) {
			t.Errorf("ParsePatchMethod(%q) = %v, %v; want %v, ok=%v", c.name, got, err, c.patch, c.ok)
		}
	}
}
