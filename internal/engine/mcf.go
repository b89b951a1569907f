package engine

import (
	"fmt"
	"os"

	"stark/internal/cluster"
)

// This file keeps the Minimum-Contention-First contention index (paper
// Algorithm 1, line 5): per executor, how many cached blocks belong to each
// collection unit. The cluster's block directory reports every replica
// entering or leaving it (cluster.SetObserver), and noteReplica applies that
// delta, so remoteOffers reads an executor's distinct-unit count in O(1)
// instead of rescanning its cache on every scheduling pass.
//
// The block → unit mapping (unitOf) changes only when a namespace
// registers, when the Group Tree splits or merges (live ReportRDD or
// journal replay), and when a driver crash discards locality and group
// state. Each of those marks the index dirty; the next read rebuilds it in
// one pass over the stores. Counts are sums, so neither the delta order nor
// Go's map iteration order can change them, and MCF's offer order stays
// deterministic.

// mcfCheck enables the recompute oracle (STARK_CHECK_MCF=1): every index
// read is compared against a full rescan and a mismatch panics.
var mcfCheck = os.Getenv("STARK_CHECK_MCF") == "1"

// unitID names one collection unit: a namespace partition, or a Group Tree
// group in extendable mode.
type unitID struct {
	ns   string
	unit int
}

// mcfIndex counts, per executor, the cached blocks of each collection unit.
// Maps hold only positive counts, so len(refs[exec]) is the executor's
// distinct-unit count.
type mcfIndex struct {
	refs  []map[unitID]int32
	dirty bool
}

// noteReplica is the cluster directory observer: it applies one replica
// entering (added) or leaving an executor's cache to the index.
func (e *Engine) noteReplica(exec int, id cluster.BlockID, added bool) {
	if e.mcf.dirty {
		return // the next read rebuilds from the stores
	}
	ns, unit, ok := e.unitOf(id)
	if !ok {
		return
	}
	k := unitID{ns, unit}
	m := e.mcf.refs[exec]
	if added {
		if m == nil {
			m = make(map[unitID]int32)
			e.mcf.refs[exec] = m
		}
		m[k]++
		return
	}
	if n := m[k] - 1; n > 0 {
		m[k] = n
	} else {
		delete(m, k)
	}
}

// unitRefs returns the executor's unit counts, rebuilding the index first
// if the block → unit mapping changed since the last read. Its length is
// the executor's MCF contention score.
func (e *Engine) unitRefs(exec int) map[unitID]int32 {
	if e.mcf.dirty {
		for i := range e.mcf.refs {
			e.mcf.refs[i] = e.rescanUnits(i)
		}
		e.mcf.dirty = false
	}
	m := e.mcf.refs[exec]
	if mcfCheck {
		want := e.rescanUnits(exec)
		if len(want) != len(m) {
			panic(fmt.Sprintf("engine: MCF index on executor %d holds %d units, rescan %d", exec, len(m), len(want)))
		}
		for k, n := range want {
			if m[k] != n {
				panic(fmt.Sprintf("engine: MCF index on executor %d counts %d blocks of %s/%d, rescan %d", exec, m[k], k.ns, k.unit, n))
			}
		}
	}
	return m
}

// unitCachedOn reports whether any block of the unit is still cached on the
// executor (never on a dead one: Kill empties its store).
func (e *Engine) unitCachedOn(ns string, unit, exec int) bool {
	cached := e.unitRefs(exec)[unitID{ns, unit}] > 0
	if mcfCheck && cached != e.scanUnitCachedOn(ns, unit, exec) {
		panic(fmt.Sprintf("engine: MCF index says unit %s/%d cached=%v on executor %d, namespace scan disagrees", ns, unit, cached, exec))
	}
	return cached
}

// rescanUnits counts the executor's cached blocks per collection unit from
// its store. It is the index's one-pass rebuild and, with
// scanUnitCachedOn, its recompute oracle.
func (e *Engine) rescanUnits(exec int) map[unitID]int32 {
	var m map[unitID]int32
	for _, id := range e.cl.Executor(exec).Store.Blocks() {
		ns, unit, ok := e.unitOf(id)
		if !ok {
			continue
		}
		if m == nil {
			m = make(map[unitID]int32)
		}
		m[unitID{ns, unit}]++
	}
	return m
}

// scanUnitCachedOn answers unitCachedOn by probing every namespace RDD's
// blocks of the unit; the oracle checks the index against it.
func (e *Engine) scanUnitCachedOn(ns string, unit, exec int) bool {
	parts := e.unitPartitions(ns, unit)
	for _, r := range e.nsRDDs[ns] {
		for _, p := range parts {
			if e.cl.CacheHas(exec, cluster.BlockID{RDD: r.ID, Partition: p}) {
				return true
			}
		}
	}
	return false
}
