package redisapp

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/pgtable"
)

// Keyspace is the store regime behind the multi-worker server: the
// frontend routes each request to a worker, and the worker executes it
// through Exec. The two implementations trade memory-layout sharing
// against locking — StoreSharded partitions the keyspace so no lock is
// ever taken; StoreLocked shares one store under futex-backed bucket
// locks — behind the same interface, so the production experiment can
// hold the command stream fixed and measure only the regime.
type Keyspace interface {
	// Exec runs one command as worker w. Implementations must be safe for
	// concurrent calls from distinct workers provided the frontend routes
	// every request for a given key to the same worker (routeKey).
	Exec(t *kernel.Task, w int, cmd Command, key, val []byte) (payload []byte, miss int, err error)
	// Digest folds the whole logical keyspace into one order- and
	// layout-independent hash (Store.Digest semantics).
	Digest(t *kernel.Task) (uint64, error)
}

// routeKey picks the owning worker for key. Both regimes use it: in the
// sharded regime it selects the shard, in the locked regime it only
// preserves per-key execution order (any worker could run the command,
// but two commands on one key must not race each other's ring).
func routeKey(t *kernel.Task, key []byte, workers int) int {
	return int(hashKey(t, key) % uint64(workers))
}

// StoreSharded hash-partitions the keyspace: worker w owns shard w
// outright — its own arena, its own buckets — so command execution never
// takes a lock and never touches another worker's cache lines except
// through the coherence protocol's natural sharing of read-only headers.
type StoreSharded struct {
	shards []*Store
}

// NewStoreSharded builds one private store per worker. arenaBytes sizes
// each shard's arena; nBuckets is per shard.
func NewStoreSharded(t *kernel.Task, workers int, arenaBytes uint64, nBuckets int) (*StoreSharded, error) {
	if workers < 1 {
		return nil, &ParamError{Field: "workers", Value: workers, Reason: "must be positive"}
	}
	ks := &StoreSharded{shards: make([]*Store, workers)}
	for w := 0; w < workers; w++ {
		arena, err := NewArena(t, arenaBytes, fmt.Sprintf("redis.shard%d", w))
		if err != nil {
			return nil, err
		}
		s, err := NewStore(t, arena, nBuckets)
		if err != nil {
			return nil, err
		}
		ks.shards[w] = s
	}
	return ks, nil
}

// Exec runs cmd on worker w's shard, lock-free.
func (ks *StoreSharded) Exec(t *kernel.Task, w int, cmd Command, key, val []byte) ([]byte, int, error) {
	return netExecute(t, ks.shards[w], cmd, key, val)
}

// Digest sums the shard digests; Store.Digest is an order-independent
// entry sum, so the total is the digest of the union keyspace.
func (ks *StoreSharded) Digest(t *kernel.Task) (uint64, error) {
	var sum uint64
	for _, s := range ks.shards {
		d, err := s.Digest(t)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// StoreLocked shares one store between all workers, guarded by a stripe
// of futex-backed bucket locks: a command locks the stripes of every
// bucket it may touch (in ascending order, so overlapping lock sets never
// deadlock), executes, and unlocks in reverse. The arena underneath must
// be a shared arena (NewSharedArena) so allocation is safe too.
type StoreLocked struct {
	store *Store
	locks []futexMutex
}

// lockStride spaces lock words a cache line apart so two stripes never
// share a line (lock-word ping-pong would otherwise couple unrelated
// buckets through false sharing).
const lockStride = 64

// NewStoreLocked wraps store with nLocks bucket-stripe locks.
func NewStoreLocked(t *kernel.Task, store *Store, nLocks int) (*StoreLocked, error) {
	if nLocks < 1 {
		return nil, &ParamError{Field: "nLocks", Value: nLocks, Reason: "must be positive"}
	}
	base, err := t.Proc.MmapAligned(uint64(nLocks*lockStride), 2<<20, kernel.VMARead|kernel.VMAWrite, "redis.locks")
	if err != nil {
		return nil, err
	}
	ks := &StoreLocked{store: store, locks: make([]futexMutex, nLocks)}
	for i := range ks.locks {
		ks.locks[i] = futexMutex{word: base + pgtable.VirtAddr(i*lockStride), salt: i}
		if err := t.Store(ks.locks[i].word, 8, 0); err != nil {
			return nil, err
		}
	}
	return ks, nil
}

// stripesFor maps the store keys cmd touches (storeKeys, the executor's
// own derivation) to a deduplicated ascending list of lock indices.
// Striping is by bucket — two keys in one hash bucket share a chain, so
// they must share a lock — then buckets fold onto the stripe array.
func (ks *StoreLocked) stripesFor(t *kernel.Task, cmd Command, key []byte) []int {
	var kbuf [4][]byte
	dks := storeKeys(kbuf[:0], cmd, key)
	stripes := make([]int, 0, len(dks))
	for _, dk := range dks {
		bucket := int(hashKey(t, dk) % uint64(ks.store.nBuckets))
		s := bucket % len(ks.locks)
		dup := false
		for _, have := range stripes {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			stripes = append(stripes, s)
		}
	}
	sort.Ints(stripes)
	return stripes
}

// Exec locks the command's bucket stripes, runs it on the shared store,
// and unlocks. The worker index is unused — any worker may execute any
// command here; ordering is the router's job.
func (ks *StoreLocked) Exec(t *kernel.Task, _ int, cmd Command, key, val []byte) ([]byte, int, error) {
	stripes := ks.stripesFor(t, cmd, key)
	for _, s := range stripes {
		if err := ks.locks[s].Lock(t); err != nil {
			return nil, 0, err
		}
	}
	payload, miss, err := netExecute(t, ks.store, cmd, key, val)
	for i := len(stripes) - 1; i >= 0; i-- {
		if uerr := ks.locks[stripes[i]].Unlock(t); uerr != nil && err == nil {
			err = uerr
		}
	}
	return payload, miss, err
}

// Digest walks the shared store. Call only when no worker is executing
// (the server digests after joining its workers).
func (ks *StoreLocked) Digest(t *kernel.Task) (uint64, error) {
	return ks.store.Digest(t)
}
