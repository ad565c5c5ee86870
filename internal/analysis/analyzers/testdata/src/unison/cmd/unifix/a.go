// Fixture: a CLI package — the scenario migration bans direct traffic
// generation here, both through the internal package and through the
// facade's var alias.
package main

import (
	"unison"
	"unison/internal/traffic"
)

func direct() []traffic.Flow {
	return traffic.Generate(4) // want `deprecated inside cmd/`
}

// The facade alias is a package-level var, not a func — the analyzer
// must resolve it as a types.Object, not just *types.Func.
var gen = unison.GenerateTraffic // want `deprecated inside cmd/`

// Naming one in a string or comment is not a reference: traffic.Generate.
const doc = "traffic.Generate("

func main() {}
