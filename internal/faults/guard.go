package faults

import "errors"

// ErrUnreachable fails a client invocation that a fault made impossible to
// complete in time: a severed quorum, a crashed coordinator, a leader cut
// off from its majority. The client library raises it when an invocation's
// operation timeout fires (binding.Client owns that deadline; the stores'
// protocol methods have none), so Correctable consumers observe OnError
// instead of a hang. Check with errors.Is.
var ErrUnreachable = errors.New("faults: service unreachable")
