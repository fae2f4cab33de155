// Package storage is the entry point to the dataspace's one storage
// engine, the WAL store of internal/store: checksummed per-source WAL
// segments merged by global LSN plus atomic snapshots. Open and Options
// forward to store.Open and store.Options.
//
// The conformance suite (conformance_test.go) is the engine's contract:
// append/reopen equivalence, the tail and full-state surfaces
// replication ships from, source drops, the digest, the crash matrix
// and the data-dir lock. See docs/PERSISTENCE.md.
package storage

import "repro/internal/store"

// Options tunes the engine; see store.Options.
type Options = store.Options

// Open opens (creating if needed) the store at dir and recovers its
// state; see store.Open.
func Open(dir string, opts Options) (*store.Store, store.RecoveryInfo, error) {
	return store.Open(dir, opts)
}
