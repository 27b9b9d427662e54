package libtm

// noCopy makes the "create with NewObj, never copy" contract on
// transactional objects machine-checked: embedding it gives Obj a
// Lock/Unlock pair that `go vet -copylocks` (run by scripts/check.sh)
// treats as a copy hazard, mirroring internal/tl2's guard. A copied
// Obj would carry its own lock word and its own reader registry, silently decoupling conflict detection between
// copy and original. (Obj's atomic words and mutex would trip the same
// check; noCopy states the contract on its own.)
type noCopy struct{}

// Lock and Unlock exist only for vet's copylocks analysis.
func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}
