// Package port defines the narrow word-granular memory-port interface that
// couples the scatter-add unit to whatever sits below it — a stream-cache
// bank in the full machine (paper Figure 4a) or the uniform-latency memory
// of the sensitivity study (§4.4). The owner of both sides is responsible
// for ticking the implementation; the interface itself is purely dataflow.
package port

import "scatteradd/internal/mem"

// Word is a request/response port that accepts word-granular memory
// operations and later yields their responses. Write requests may complete
// silently (no Response); Read and Fetch* requests always produce one.
type Word interface {
	// CanAccept reports whether Accept would succeed this cycle.
	CanAccept(now uint64) bool
	// Accept submits a request, reporting whether it was taken.
	Accept(now uint64, r mem.Request) bool
	// PopResponse removes one completed response if available.
	PopResponse(now uint64) (mem.Response, bool)
	// NextResponse returns the earliest cycle >= now at which PopResponse
	// can yield a response, or ^uint64(0) (sim.Never) when none is in
	// flight. The component draining the port folds it into its own
	// NextEvent, since the responses are its input.
	NextResponse(now uint64) uint64
	// Busy reports whether any accepted request has not yet fully
	// completed (including undelivered responses and dirty write buffers).
	Busy() bool
}
