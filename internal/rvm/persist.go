package rvm

import (
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/imageindex"
	"repro/internal/store"
	"repro/internal/textindex"
	"repro/internal/tupleindex"
)

// This file wires the Resource View Manager to the durability layer
// (internal/store): replica commits are logged to the write-ahead log
// before they are applied, and a manager can be rebuilt from a recovered
// state without re-walking any source. See docs/PERSISTENCE.md.

// Store returns the durability layer the manager logs to (nil when the
// dataspace is in-memory only).
func (m *Manager) Store() *store.Store { return m.opts.Store }

// Checkpoint compacts the durable state into a fresh snapshot and
// truncates the WAL; a no-op without a store.
func (m *Manager) Checkpoint() error {
	if m.opts.Store == nil {
		return nil
	}
	return m.opts.Store.Snapshot()
}

// StateDigest returns the stable-serialization digest of the durable
// state ("" when the dataspace is in-memory only).
func (m *Manager) StateDigest() string {
	if m.opts.Store == nil {
		return ""
	}
	return m.opts.Store.Digest()
}

// RestoreFromState rebuilds the Replica & Indexes module from a
// recovered durable state: the name, tuple, content and image indexes
// are reconstructed from the replicated components, and the group
// replica (with its reverse edges) from the persisted edge commits.
// Live views stay unresolved until the sources are re-added and synced;
// queries answer from the replicas meanwhile, exactly as they do for a
// degraded source.
//
// When the manager's indexes are still empty — the cold-start case:
// OpenDurable after recovery, or a replica installing a full-state
// image — the text and tuple indexes are built with the sort-based bulk
// path (one spill-sort-merge pass per index) instead of per-view
// incremental insertion; Options.NoBulkRestore forces the incremental
// path. Both paths produce semantically identical indexes (pinned by
// TestBulkRestoreEquivalence).
func (m *Manager) RestoreFromState(st *store.State) {
	if st == nil {
		return
	}
	oids := make([]catalog.OID, 0, len(st.Views))
	for oid := range st.Views {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })

	m.mu.Lock()
	defer m.mu.Unlock()
	bulk := !m.opts.NoBulkRestore &&
		m.nameIdx.DocCount() == 0 && m.contentIdx.DocCount() == 0 && m.tupleIdx.DocCount() == 0
	var nameB, contentB *textindex.Builder
	var tupleB *tupleindex.Builder
	if bulk {
		nameB = textindex.NewBuilder()
		contentB = textindex.NewBuilder()
		tupleB = tupleindex.NewBuilder()
	}
	for _, oid := range oids {
		v := st.Views[oid]
		if bulk {
			nameB.Add(textindex.DocID(oid), v.Entry.Name)
		} else {
			m.nameIdx.Add(textindex.DocID(oid), v.Entry.Name)
		}
		if !v.Tuple.IsEmpty() {
			if bulk {
				tupleB.Add(tupleindex.DocID(oid), v.Tuple)
			} else {
				m.tupleIdx.Add(tupleindex.DocID(oid), v.Tuple)
			}
		}
		if v.Text != "" {
			if bulk {
				contentB.Add(textindex.DocID(oid), v.Text)
			} else {
				m.contentIdx.Add(textindex.DocID(oid), v.Text)
			}
			m.contentBytes[v.Entry.Source] += int64(len(v.Text))
		}
		if len(v.Binary) > 0 && m.opts.IndexImages {
			m.imageIdx.Add(imageindex.DocID(oid), v.Binary)
		}
		lowered := strings.ToLower(v.Entry.Name)
		m.nameRep[oid] = v.Entry.Name
		m.nameLower[oid] = lowered
		exact := m.byLowerName[lowered]
		if exact == nil {
			exact = make(map[catalog.OID]struct{})
			m.byLowerName[lowered] = exact
		}
		exact[oid] = struct{}{}
		m.classOf[oid] = v.Entry.Class
		members := m.classRep[v.Entry.Class]
		if members == nil {
			members = make(map[catalog.OID]struct{})
			m.classRep[v.Entry.Class] = members
		}
		members[oid] = struct{}{}
	}
	if bulk {
		m.nameIdx = nameB.Build()
		m.contentIdx = contentB.Build()
		m.tupleIdx = tupleB.Build()
	}
	for _, edges := range st.Edges {
		for parent, children := range edges {
			cs := append([]catalog.OID(nil), children...)
			if m.opts.ReplicateGroups {
				m.groupRep[parent] = cs
			}
			for _, c := range cs {
				m.parentRep[c] = appendUniqueOID(m.parentRep[c], parent)
			}
		}
	}
	m.met.views.Set(int64(m.catalog.Count()))
}

// logUpsert writes one view registration to the WAL before the caller
// applies it to the in-memory replicas.
func (m *Manager) logUpsert(source string, e catalog.Entry, rec store.ViewRecord) error {
	if m.opts.Store == nil {
		return nil
	}
	rec.Entry = e
	return m.opts.Store.Append(source, store.Record{Kind: store.KindUpsert, View: &rec})
}

// logRemove writes one view removal to the WAL before the caller drops
// it from the in-memory replicas.
func (m *Manager) logRemove(source string, oid catalog.OID) error {
	if m.opts.Store == nil {
		return nil
	}
	return m.opts.Store.Append(source, store.Record{Kind: store.KindRemove, OID: oid})
}

// logEdges writes a source's group-replica commit — the buffered
// last-good graph of one successful sync walk — to the WAL before
// commitReplica swaps it in. This is the WAL's commit point: under the
// default fsync policy the log is flushed here.
func (m *Manager) logEdges(source string, group map[catalog.OID][]catalog.OID) error {
	if m.opts.Store == nil {
		return nil
	}
	rec := store.Record{Kind: store.KindEdges, Source: source}
	parents := make([]catalog.OID, 0, len(group))
	for p := range group {
		parents = append(parents, p)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	for _, p := range parents {
		rec.Edges = append(rec.Edges, store.EdgeList{Parent: p, Children: group[p]})
	}
	return m.opts.Store.Append(source, rec)
}
