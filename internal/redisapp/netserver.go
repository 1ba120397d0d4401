package redisapp

import (
	"fmt"
	"io"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// NetServerParams configures one socket-serving server task.
type NetServerParams struct {
	// Port is the listening port.
	Port uint16
	// Expected is the number of requests to serve before closing.
	Expected int
	// PayloadBytes and Keys size the pre-populated keyspace (matching the
	// generator's deterministic key/value functions).
	PayloadBytes int
	Keys         int
	// Migrate serves from the remote ISA after populating at the origin
	// (the paper's time_event scenario, like the ring-based server).
	Migrate bool
	// ExtraCompute is added application work per request, in instructions
	// (0 = none). It models request bodies heavier than pure store lookups
	// and gives scaling benchmarks a per-machine compute component.
	ExtraCompute int64
}

// Validate rejects server shapes that cannot run: an empty keyspace, a
// negative request count, and payloads the stream decoder would reject.
func (p NetServerParams) Validate() error {
	if p.Expected < 0 {
		return &ParamError{Field: "Expected", Value: p.Expected, Reason: "must not be negative"}
	}
	return validateKeyspace(p.PayloadBytes, p.Keys)
}

// validateKeyspace checks the pre-populated keyspace's shape, which every
// socket-served server and its traffic generator share.
func validateKeyspace(payloadBytes, keys int) error {
	if payloadBytes <= 0 {
		return &ParamError{Field: "PayloadBytes", Value: payloadBytes, Reason: "must be positive"}
	}
	if payloadBytes > maxNetVal {
		return &ParamError{Field: "PayloadBytes", Value: payloadBytes,
			Reason: fmt.Sprintf("exceeds stream value bound %d", maxNetVal)}
	}
	if keys <= 0 {
		return &ParamError{Field: "Keys", Value: keys, Reason: "must be positive"}
	}
	return nil
}

// NetServerStats reports one server task's work.
type NetServerStats struct {
	// Served counts completed requests; Misses counts GET/POP on empty.
	Served int
	Misses int
	// ServeCycles is the simulated time from the first poll to the last
	// response (the populate phase is excluded, like BeginTimed).
	ServeCycles sim.Cycles
}

// ServeNet runs one miniature-Redis server over kernel socket syscalls:
// listen first (so early SYNs queue in the RX ring while the store
// populates), pre-populate the keyspace, optionally migrate to the remote
// ISA, then serve exactly Expected requests across however many
// connections arrive, and close. The accept/receive loop is non-blocking
// round-robin over connections, so one pipelined load-balancer connection
// and many per-client connections behave the same.
func ServeNet(t *kernel.Task, p NetServerParams) (NetServerStats, error) {
	var st NetServerStats
	if err := p.Validate(); err != nil {
		return st, err
	}
	lfd, err := t.SocketListen(p.Port)
	if err != nil {
		return st, err
	}

	bp := BenchParams{PayloadBytes: p.PayloadBytes, Keys: p.Keys}
	arena, err := NewArena(t, 48<<20, "redis.heap")
	if err != nil {
		return st, err
	}
	store, err := NewStore(t, arena, 256)
	if err != nil {
		return st, err
	}
	for i := 0; i < p.Keys; i++ {
		if err := store.Set(t, keyFor(bp, i), valFor(bp, i)); err != nil {
			return st, err
		}
	}
	if p.Migrate {
		if err := t.Migrate(mem.NodeArm); err != nil {
			return st, err
		}
	}

	t.BeginTimed()
	var conns []int
	bufs := make(map[int][]byte)
	for st.Served < p.Expected {
		progress := false
		fd, err := t.TrySocketAccept(lfd)
		if err != nil {
			return st, err
		}
		if fd >= 0 {
			conns = append(conns, fd)
			progress = true
		}
		for ci := 0; ci < len(conns); ci++ {
			fd := conns[ci]
			data, err := t.TryRecvSock(fd, 4096)
			if err == io.EOF {
				if err := t.CloseSock(fd); err != nil {
					return st, err
				}
				conns = append(conns[:ci], conns[ci+1:]...)
				delete(bufs, fd)
				ci--
				progress = true
				continue
			}
			if err != nil {
				return st, err
			}
			if len(data) == 0 {
				continue
			}
			progress = true
			buf := append(bufs[fd], data...)
			// Pipelining: decode and execute every complete request in the
			// reassembly buffer, staging the responses, then flush them in
			// one socket write per drain — a pipelined client's burst costs
			// one send-path traversal instead of one per response.
			var out []byte
			for {
				cmd, key, val, rest, ok, derr := decodeRequest(buf)
				if derr != nil {
					return st, derr
				}
				if !ok {
					break
				}
				buf = rest
				// Protocol parsing cost (RESP decode is byte-at-a-time work).
				t.Compute(int64(20 + (len(key)+len(val))/8))
				payload, miss, err := netExecute(t, store, cmd, key, val)
				if err != nil {
					return st, err
				}
				st.Misses += miss
				if p.ExtraCompute > 0 {
					t.Compute(p.ExtraCompute)
				}
				status := byte(1)
				if miss > 0 {
					status = 0
				}
				out = appendResponse(out, status, payload)
				st.Served++
			}
			if len(out) > 0 {
				if _, err := t.SendSock(fd, out); err != nil {
					return st, err
				}
			}
			bufs[fd] = buf
		}
		if !progress {
			t.Th.Advance(400) // poll interval
			t.Th.YieldPoint()
		}
	}
	st.ServeCycles = t.TimedCycles()
	for _, fd := range conns {
		if err := t.CloseSock(fd); err != nil {
			return st, err
		}
	}
	return st, t.CloseSock(lfd)
}

// storeKeys appends to dst the store keys cmd touches for the wire key:
// lists live under "l:", sets under "s:", and MSET fans out to four
// "m<j>:" keys. GET and SET use the wire key itself. The executor and the
// locked keyspace's lock set both derive their keys here, so they cannot
// disagree.
func storeKeys(dst [][]byte, cmd Command, key []byte) [][]byte {
	switch cmd {
	case CmdLPush, CmdRPush, CmdLPop, CmdRPop:
		return append(dst, append([]byte("l:"), key...))
	case CmdSAdd:
		return append(dst, append([]byte("s:"), key...))
	case CmdMSet:
		for j := 0; j < 4; j++ {
			dst = append(dst, append([]byte(fmt.Sprintf("m%d:", j)), key...))
		}
		return dst
	}
	return append(dst, key)
}

// netExecute runs one command against the store and returns the response
// payload (the value for reads, nothing for writes) plus a miss count.
// Every server path and AOF replay execute through it.
func netExecute(t *kernel.Task, store *Store, cmd Command, key, val []byte) ([]byte, int, error) {
	var kbuf [4][]byte
	keys := storeKeys(kbuf[:0], cmd, key)
	var got []byte
	var err error
	switch cmd {
	case CmdGet:
		got, err = store.Get(t, keys[0])
	case CmdLPop, CmdRPop:
		got, err = store.Pop(t, keys[0], cmd == CmdLPop)
	case CmdSet, CmdMSet:
		for _, k := range keys {
			if err := store.Set(t, k, val); err != nil {
				return nil, 0, err
			}
		}
		return nil, 0, nil
	case CmdLPush, CmdRPush:
		return nil, 0, store.Push(t, keys[0], val, cmd == CmdLPush)
	case CmdSAdd:
		// Set members are the payload's first 32 bytes.
		_, err := store.SAdd(t, keys[0], val[:min(len(val), 32)])
		return nil, 0, err
	default:
		return nil, 0, fmt.Errorf("redisapp: bad command %d", cmd)
	}
	if err != nil || got != nil {
		return got, 0, err
	}
	return nil, 1, nil
}
