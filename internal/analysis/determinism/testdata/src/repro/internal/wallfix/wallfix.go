// Package wallfix exercises the determinism import ban: simulation
// packages importing real networking or the observability plane are
// findings; deterministic stdlib imports and suppressed lines are not.
package wallfix

import (
	"fmt"
	_ "net"               // want `import net crosses the sim/wall-clock boundary`
	_ "net/http"          // want `import net/http crosses the sim/wall-clock boundary`
	_ "net/http/httptest" // want `import net/http/httptest crosses the sim/wall-clock boundary`
	"time"

	_ "repro/internal/obs/serve" // want `import repro/internal/obs/serve crosses the sim/wall-clock boundary`

	// Transitive: netprobe itself is exempt (bench), but its NetFact
	// travels to every sim importer.
	_ "repro/internal/bench/netprobe" // want `import repro/internal/bench/netprobe transitively links the wall-clock side \(repro/internal/bench/netprobe → net\)`

	//lint:allow determinism -- fixture demonstrates suppression
	_ "net/http/pprof"
)

// Good: deterministic stdlib imports stay fine — the analyzer bans the
// network boundary, not the standard library.
func fine() string {
	return fmt.Sprint(3 * time.Second)
}
