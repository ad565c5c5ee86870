// Fixture: a library package. The traffic ban is cmd/-scoped, so outside
// unison/cmd/ both the facade alias and direct generation stay legal.
package depuser

import (
	"unison"
	"unison/internal/traffic"
)

var flows = unison.GenerateTraffic(2)

func direct() []traffic.Flow { return traffic.Generate(4) }
