package redisapp

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file owns the RESP-lite request and response headers. Every byte
// path redisapp serves over is a prefix around them:
//
//	socket stream:     request | request ...   response | response ...
//	AOF:               len(4) | request
//	production rings:  seq(8) | request        seq(8) | response
//	Figure 14 RX slot: request
//
// where one request is cmd(1)|klen(4)|vlen(4)|key|val and one response
// is status(1)|plen(4)|payload (status 1 = ok, 0 = miss).
const (
	reqHdr  = 9
	respHdr = 5
	// maxNetKey and maxNetVal bound the attacker-controlled length fields
	// of every framing; anything larger is a protocol error, not an
	// allocation.
	maxNetKey = 512
	maxNetVal = 8192
)

// appendRequest appends one request to b.
func appendRequest(b []byte, cmd Command, key, val []byte) []byte {
	b = slices.Grow(b, reqHdr+len(key)+len(val))
	b = append(b, byte(cmd))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
	b = append(b, key...)
	return append(b, val...)
}

// parseRequestHeader decodes the reqHdr bytes at the front of h and
// rejects a header no request can have.
func parseRequestHeader(h []byte) (cmd Command, klen, vlen int, err error) {
	cmd = Command(h[0])
	klen = int(binary.LittleEndian.Uint32(h[1:5]))
	vlen = int(binary.LittleEndian.Uint32(h[5:9]))
	if cmd < CmdGet || cmd > CmdMSet || klen <= 0 || klen > maxNetKey || vlen > maxNetVal {
		return 0, 0, 0, fmt.Errorf("redisapp: corrupt request header (cmd=%d klen=%d vlen=%d)", cmd, klen, vlen)
	}
	return cmd, klen, vlen, nil
}

// appendResponse appends one response to b.
func appendResponse(b []byte, status byte, payload []byte) []byte {
	b = slices.Grow(b, respHdr+len(payload))
	b = append(b, status)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// parseResponseHeader decodes the respHdr bytes at the front of h and
// rejects a header no response can have.
func parseResponseHeader(h []byte) (status byte, plen int, err error) {
	status = h[0]
	plen = int(binary.LittleEndian.Uint32(h[1:5]))
	if status > 1 || plen > maxNetVal {
		return 0, 0, fmt.Errorf("redisapp: corrupt response header (status=%d plen=%d)", status, plen)
	}
	return status, plen, nil
}

// decodeRequest pulls one complete request off the front of a socket
// stream's reassembly buffer, where requests may arrive split or
// coalesced across frames. ok=false with a nil error means more bytes
// are needed.
func decodeRequest(buf []byte) (cmd Command, key, val, rest []byte, ok bool, err error) {
	if len(buf) < reqHdr {
		return 0, nil, nil, buf, false, nil
	}
	cmd, klen, vlen, err := parseRequestHeader(buf)
	n := reqHdr + klen + vlen
	if err != nil || len(buf) < n {
		return 0, nil, nil, buf, false, err
	}
	return cmd, buf[reqHdr : reqHdr+klen], buf[reqHdr+klen : n], buf[n:], true, nil
}

// decodeResponse pulls one complete response off the front of buf,
// mirroring decodeRequest.
func decodeResponse(buf []byte) (status byte, payload, rest []byte, ok bool, err error) {
	if len(buf) < respHdr {
		return 0, nil, buf, false, nil
	}
	status, plen, err := parseResponseHeader(buf)
	n := respHdr + plen
	if err != nil || len(buf) < n {
		return 0, nil, buf, false, err
	}
	return status, buf[respHdr:n], buf[n:], true, nil
}
