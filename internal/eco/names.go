package eco

import (
	"fmt"
	"strings"
)

// supportNames and patchNames are the one name table of the support
// algorithms and patch methods: eco's -support and -patch flags and
// ecod's job options both read names through it.
var (
	supportNames = map[string]SupportAlgo{
		"final":    SupportAnalyzeFinal,
		"minimize": SupportMinimize,
		"exact":    SupportExact,
	}
	patchNames = map[string]PatchMethod{
		"cubes":  PatchCubeEnum,
		"interp": PatchInterpolation,
	}
)

// ParseSupportAlgo maps a support name (final, minimize or exact, in
// any case) to its algorithm.
func ParseSupportAlgo(name string) (SupportAlgo, error) {
	if a, ok := supportNames[strings.ToLower(name)]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("unknown support algorithm %q (want final, minimize or exact)", name)
}

// ParsePatchMethod maps a patch name (cubes or interp, in any case)
// to its method.
func ParsePatchMethod(name string) (PatchMethod, error) {
	if m, ok := patchNames[strings.ToLower(name)]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("unknown patch method %q (want cubes or interp)", name)
}
