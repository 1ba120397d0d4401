package redisapp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// AOF record wire format, length-prefixed so a crash mid-append leaves a
// detectably-truncated tail rather than a silently corrupt log:
//
//	len(4) | request
//
// where request is the codec's cmd|klen|vlen|key|val and len counts its
// bytes. Records hold the wire-level command as received — replay runs
// them through the same netExecute path as live traffic, so derived-key
// prefixes, SADD member truncation and MSET fan-out are reproduced rather
// than re-encoded.

// appendAOFRecord appends one mutation record to b.
func appendAOFRecord(b []byte, cmd Command, key, val []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(reqHdr+len(key)+len(val)))
	return appendRequest(b, cmd, key, val)
}

// decodeAOFRecord pulls one record off the front of buf. ok=false with a
// nil error means the buffer ends mid-record (a truncated tail — legal
// after a crash); a header that cannot be valid at any length is
// corruption and errors.
func decodeAOFRecord(buf []byte) (cmd Command, key, val, rest []byte, ok bool, err error) {
	if len(buf) < 4+reqHdr {
		return 0, nil, nil, buf, false, nil
	}
	rlen := int(binary.LittleEndian.Uint32(buf[0:4]))
	cmd, klen, vlen, err := parseRequestHeader(buf[4:])
	if err == nil && rlen != reqHdr+klen+vlen {
		err = fmt.Errorf("redisapp: corrupt AOF record (len=%d, request %d bytes)", rlen, reqHdr+klen+vlen)
	}
	if err != nil || len(buf) < 4+rlen {
		return 0, nil, nil, buf, false, err
	}
	req := buf[4+reqHdr : 4+rlen]
	return cmd, req[:klen], req[klen:], buf[4+rlen:], true, nil
}

// mutatesStore reports whether a command's effect must be logged. Pops
// mutate only when they return an element, which the caller knows from
// the miss count.
func mutatesStore(cmd Command, miss int) bool {
	switch cmd {
	case CmdSet, CmdLPush, CmdRPush, CmdSAdd, CmdMSet:
		return true
	case CmdLPop, CmdRPop:
		return miss == 0
	}
	return false
}

// aofLog is one task's append-only-file handle with group commit: Append
// stages records host-side, and the staged batch is written and fsynced
// when it reaches GroupK records or GroupQ cycles have passed since the
// last flush — redis's "appendfsync everysec" shape, but measured in
// simulated time so the policy is a pure function of the cycle clock and
// the command stream. Each worker owns its own aofLog over its own
// descriptor; the file itself is opened with OAppend, so concurrent batch
// writes land as atomic appends.
type aofLog struct {
	fd        int
	staged    []byte
	stagedRec int
	lastFlush sim.Cycles

	// GroupK flushes after this many staged records; GroupQ flushes when
	// this many cycles have passed since the last flush (checked at
	// append time, like a timer wheel serviced on the request path).
	GroupK int
	GroupQ sim.Cycles

	// Batches counts fsync batches, Records appended records, Bytes
	// written bytes — the -json worker counters.
	Batches int64
	Records int64
	Bytes   int64
}

// openAOF opens (creating if needed) the log at path for appending.
func openAOF(t *kernel.Task, path string, k int, q sim.Cycles) (*aofLog, error) {
	fd, err := t.OpenFile(path, vfs.OWrite|vfs.OCreate|vfs.OAppend)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	if q <= 0 {
		q = 1 << 62 // effectively count-only
	}
	return &aofLog{fd: fd, GroupK: k, GroupQ: q, lastFlush: t.Th.Now()}, nil
}

// Append stages one mutation record and flushes if the group-commit
// policy says so.
func (l *aofLog) Append(t *kernel.Task, cmd Command, key, val []byte) error {
	l.staged = appendAOFRecord(l.staged, cmd, key, val)
	l.stagedRec++
	l.Records++
	if l.stagedRec >= l.GroupK || t.Th.Now()-l.lastFlush >= l.GroupQ {
		return l.Flush(t)
	}
	return nil
}

// Flush writes the staged batch in one append and fsyncs it. The fsync is
// where the page-cache regimes diverge: the fused cache has nothing to
// flush, the popcorn cache pushes dirty replica pages home by message.
func (l *aofLog) Flush(t *kernel.Task) error {
	l.lastFlush = t.Th.Now()
	if l.stagedRec == 0 {
		return nil
	}
	if _, err := t.WriteFile(l.fd, l.staged); err != nil {
		return err
	}
	if err := t.SyncFile(l.fd); err != nil {
		return err
	}
	l.Bytes += int64(len(l.staged))
	l.Batches++
	l.staged = l.staged[:0]
	l.stagedRec = 0
	return nil
}

// Close flushes and releases the descriptor.
func (l *aofLog) Close(t *kernel.Task) error {
	if err := l.Flush(t); err != nil {
		return err
	}
	return t.CloseFile(l.fd)
}

// RecoverAOF replays the log at path into store, returning the number of
// records applied. A truncated tail (crash mid-append) is tolerated and
// replay stops cleanly before it; a corrupt record mid-file is an error.
func RecoverAOF(t *kernel.Task, path string, store *Store) (int, error) {
	fd, err := t.OpenFile(path, vfs.ORead)
	if err != nil {
		return 0, err
	}
	size, err := t.FileSize(fd)
	if err != nil {
		return 0, err
	}
	applied := 0
	var buf []byte
	var off int64
	chunk := make([]byte, 4096)
	for {
		for {
			cmd, key, val, rest, ok, derr := decodeAOFRecord(buf)
			if derr != nil {
				return applied, derr
			}
			if !ok {
				break
			}
			buf = rest
			if _, _, err := netExecute(t, store, cmd, key, val); err != nil {
				return applied, err
			}
			applied++
		}
		if off >= size {
			break
		}
		n, err := t.ReadFileAt(fd, chunk, off)
		if err != nil {
			return applied, err
		}
		if n == 0 {
			break
		}
		off += int64(n)
		buf = append(buf, chunk[:n]...)
	}
	return applied, t.CloseFile(fd)
}
