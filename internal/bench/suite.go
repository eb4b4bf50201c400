package bench

import "fmt"

// Suite returns the 20-unit replica of the contest benchmark set.
// Target counts follow Table 1 of the paper (1,1,1,1,2,2,1,1,4,2,8,
// 1,1,12,1,2,8,1,4,4); sizes are scaled by the given factor
// (scale 1 keeps the suite laptop-fast; larger scales approach the
// contest's gate counts).
//
// StructuralUnits lists the units the Table-1 harness runs with
// ForceStructural, standing in for the four contest units
// (6, 10, 11, 19) that the paper reports as solved by the structural
// method after SAT timeouts.
func Suite(scale int) []Config {
	if scale < 1 {
		scale = 1
	}
	s := func(base int) int { return base * scale }
	return []Config{
		{Name: "unit1", Seed: 101, Family: FamC17, Size: 0, Targets: 1, Profile: T1},
		{Name: "unit2", Seed: 102, Family: FamRandom, Size: s(220), Targets: 1, Profile: T2},
		{Name: "unit3", Seed: 103, Family: FamRandom, Size: s(400), Targets: 1, Profile: T3},
		{Name: "unit4", Seed: 104, Family: FamAdder, Size: 4 * scale, Targets: 1, Profile: T4},
		{Name: "unit5", Seed: 105, Family: FamALU, Size: 8 * scale, Targets: 2, Profile: T5},
		{Name: "unit6", Seed: 106, Family: FamRandom, Size: s(500), Targets: 2, Profile: T6},
		{Name: "unit7", Seed: 107, Family: FamRandom, Size: s(300), Targets: 1, Profile: T7},
		{Name: "unit8", Seed: 108, Family: FamComparator, Size: 12 * scale, Targets: 1, Profile: T8},
		{Name: "unit9", Seed: 109, Family: FamRandom, Size: s(450), Targets: 4, Profile: T1},
		{Name: "unit10", Seed: 110, Family: FamParity, Size: 16 * scale, Targets: 2, Profile: T2},
		{Name: "unit11", Seed: 111, Family: FamRandom, Size: s(260), Targets: 8, Profile: T3},
		{Name: "unit12", Seed: 112, Family: FamRandom, Size: s(600), Targets: 1, Profile: T4},
		{Name: "unit13", Seed: 113, Family: FamRandom, Size: s(120), Targets: 1, Profile: T5},
		{Name: "unit14", Seed: 114, Family: FamRandom, Size: s(240), Targets: 12, Profile: T6},
		{Name: "unit15", Seed: 115, Family: FamRandom, Size: s(280), Targets: 1, Profile: T7},
		{Name: "unit16", Seed: 116, Family: FamALU, Size: 10 * scale, Targets: 2, Profile: T8},
		{Name: "unit17", Seed: 117, Family: FamRandom, Size: s(320), Targets: 8, Profile: T1},
		{Name: "unit18", Seed: 118, Family: FamRandom, Size: s(520), Targets: 1, Profile: T2},
		{Name: "unit19", Seed: 119, Family: FamRandom, Size: s(480), Targets: 4, Profile: T3},
		{Name: "unit20", Seed: 120, Family: FamAdder, Size: 16 * scale, Targets: 4, Profile: T4},
	}
}

// StructuralUnits mirrors the paper's units solved by the structural
// method (Table 1 rows unit6, unit10, unit11, unit19): the harness
// runs them with ForceStructural, so they take the §3.6 fallback
// without a SAT attempt (see Table1Options).
var StructuralUnits = map[string]bool{
	"unit6":  true,
	"unit10": true,
	"unit11": true,
	"unit19": true,
}

// ConfigByName finds a unit config in the suite.
func ConfigByName(scale int, name string) (Config, error) {
	for _, c := range Suite(scale) {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("bench: unknown unit %q", name)
}
