// Package resultstore is the content-addressed cell-result cache:
// campaign cells are pure functions of (canonical spec JSON, effective
// seed, code version), so their outputs can be memoized under the
// SHA-256 of exactly those inputs and reused by any later campaign that
// expands the same cell — repeated or overlapping campaigns become
// incremental, and a shared pcs serve instance deduplicates work across
// users.
//
// The store is one concrete type (Store) over a local sharded
// directory: Get/Put on opaque keys and byte slices, a directory walk
// for Stats and GC, and a TTL-bounded walk for the server's size gauge.
// Hit and miss counts are the server's (resultstore_hits_total /
// resultstore_misses_total at /metrics), not the store's.
//
// Keys must be stable across processes, architectures and JSON field
// order, which is why hashing goes through CanonicalJSON rather than
// the raw parameter bytes: two spec documents that decode to the same
// cell hash identically even if their files differ in key order or
// whitespace.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CanonicalJSON re-encodes a JSON document in canonical form: object
// keys sorted, insignificant whitespace removed, number literals
// preserved exactly as written (via json.Number, so 0.10 and 0.1 stay
// distinct but field order never matters). Two semantically identical
// parameter documents canonicalize to the same bytes.
func CanonicalJSON(data []byte) ([]byte, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return []byte("null"), nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("resultstore: canonicalize: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("resultstore: canonicalize: trailing data after document")
	}
	// json.Marshal writes maps with sorted keys and json.Number values
	// as their original literals, which is exactly the canonical form.
	out, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("resultstore: canonicalize: %v", err)
	}
	return out, nil
}

// Key computes the content address of one campaign cell:
//
//	SHA-256(kind ‖ 0x00 ‖ canonical-params-JSON ‖ 0x00 ‖ seed ‖ 0x00 ‖ codeVersion)
//
// hex-encoded. The seed is the cell's effective seed (the derived
// per-job seed, or the pinned params seed — the caller resolves which);
// codeVersion is the build identity (internal/version), so a rebuild
// with different code never serves stale results. Job names are
// deliberately excluded: they are labels, and relabelling a cell must
// not change its address.
func Key(kind string, params []byte, seed uint64, codeVersion string) (string, error) {
	canon, err := CanonicalJSON(params)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var sep = [1]byte{0}
	var seedBuf [8]byte
	binary.BigEndian.PutUint64(seedBuf[:], seed)
	h.Write([]byte(kind))
	h.Write(sep[:])
	h.Write(canon)
	h.Write(sep[:])
	h.Write(seedBuf[:])
	h.Write(sep[:])
	h.Write([]byte(codeVersion))
	return hex.EncodeToString(h.Sum(nil)), nil
}
