package redisapp

import "fmt"

// StoreErrorKind classifies store capacity failures. Callers in the
// execute paths use it to tell capacity exhaustion (a server-operations
// problem: the arena is sized wrong for the workload) apart from protocol
// errors (corrupt or hostile wire input).
type StoreErrorKind int

const (
	// ErrArenaExhausted means the bump arena could not satisfy an
	// allocation: the keyspace outgrew its reservation.
	ErrArenaExhausted StoreErrorKind = iota + 1
	// ErrValueTooLarge means a value exceeded the store's hard per-value
	// cap (maxStoreVal); the command was rejected before any allocation.
	ErrValueTooLarge
)

func (k StoreErrorKind) String() string {
	switch k {
	case ErrArenaExhausted:
		return "arena exhausted"
	case ErrValueTooLarge:
		return "value too large"
	}
	return fmt.Sprintf("StoreErrorKind(%d)", int(k))
}

// maxStoreVal is the hard cap on a single stored value (string block,
// list-node payload or set member), far above every wire-protocol bound
// (maxNetVal, maxRRPayload) so only direct misuse of the store API or a
// future protocol extension can trip it.
const maxStoreVal = 1 << 16

// StoreError is the typed error the store returns for capacity failures,
// replacing the generic fmt.Errorf strings: Kind says what ran out, Op the
// store operation that hit it, and Size/Limit the numbers involved.
type StoreError struct {
	Kind  StoreErrorKind
	Op    string
	Size  uint64
	Limit uint64
}

func (e *StoreError) Error() string {
	return fmt.Sprintf("redisapp: %s: %v (%d > limit %d)", e.Op, e.Kind, e.Size, e.Limit)
}

// ParamError reports an invalid benchmark, traffic or server parameter,
// mirroring machine.ConfigError: the field, the offending value, and why
// it is rejected — checked up front so a bad shape fails fast instead of
// livelocking or corrupting a run deep inside the simulation.
type ParamError struct {
	Field  string
	Value  any
	Reason string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("redisapp: param %s = %v: %s", e.Field, e.Value, e.Reason)
}
