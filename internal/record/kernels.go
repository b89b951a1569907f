package record

import (
	"sort"
	"sync"

	"stark/internal/arena"
)

// groupScratch is the per-call transient state of the grouping kernel: an
// open-addressing hash table plus per-record and per-group index columns,
// all carved from one arena so a steady-state grouping pass allocates only
// its escaping outputs (the group headers and the shared values backing).
type groupScratch struct {
	i32 arena.Pool[int32]
	u32 arena.Pool[uint32]
}

var groupScratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

// GroupByKeySorted groups a record slice by key and returns the groups in
// ascending key order. Keys are FNV-hashed once into an open-addressing
// table of arena-backed int32 slots (no map, no per-key allocation), group
// sizes are counted in the same pass, and every group's Values are carved
// out of one shared backing array — a partition groups in a handful of
// allocations regardless of key count. Consumers must treat Values as read-only
// (appending to one group would clobber its neighbor), which the engine's
// purity contract already demands.
//
//starklint:hotpath
func GroupByKeySorted(rs []Record) []Grouped {
	n := len(rs)
	if n == 0 {
		return nil
	}
	sc := groupScratchPool.Get().(*groupScratch)
	hs := sc.u32.Take(n)
	for i := 0; i < n; i++ {
		hs[i] = fnv32aString(rs[i].Key)
	}
	tsize := 1
	for tsize < 2*n {
		tsize <<= 1
	}
	mask := uint32(tsize - 1)
	table := sc.i32.Take(tsize) // 0 = empty, else group id + 1
	gidOf := sc.i32.Take(n)
	counts := sc.i32.Take(n)
	firstRec := sc.i32.Take(n)
	ngroups := int32(0)
	for i := 0; i < n; i++ {
		h := hs[i]
		slot := h & mask
		for {
			g := table[slot]
			if g == 0 {
				table[slot] = ngroups + 1
				firstRec[ngroups] = int32(i)
				counts[ngroups] = 1
				gidOf[i] = ngroups
				ngroups++
				break
			}
			if fi := firstRec[g-1]; hs[fi] == h && rs[fi].Key == rs[i].Key {
				gidOf[i] = g - 1
				counts[g-1]++
				break
			}
			slot = (slot + 1) & mask
		}
	}
	groups := make([]Grouped, ngroups)
	backing := make([]any, n)
	starts := sc.i32.Take(int(ngroups))
	cursor := sc.i32.Take(int(ngroups))
	var off int32
	for g := int32(0); g < ngroups; g++ {
		starts[g] = off
		off += counts[g]
		groups[g] = Grouped{
			Key:    rs[firstRec[g]].Key,
			Values: backing[starts[g] : starts[g]+counts[g] : starts[g]+counts[g]],
		}
	}
	for i := 0; i < n; i++ {
		g := gidOf[i]
		backing[starts[g]+cursor[g]] = rs[i].Value
		cursor[g]++
	}
	//starklint:ignore hotalloc one slice-header boxing per grouping call (not per record); the sorted-output contract needs the sort and sort.Slice is the only stdlib option without a per-call closure type
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	sc.i32.Reset()
	sc.u32.Reset()
	//starklint:ignore hotalloc sync.Pool.Put takes any but *groupScratch is a pointer, so the conversion stores the pointer in the interface word without allocating
	groupScratchPool.Put(sc)
	return groups
}

// CoGroupRecords groups several parents' records by key into CoGrouped
// values: one output record per distinct key, keys in first-seen order
// across the parents (parent 0 first), each carrying len(inputs) per-parent
// value slices with values in input order and a nil slice for a parent that
// lacks the key. With no input records it returns a non-nil empty slice.
// This is exactly the output of the map-based loop rdd.CoGroup used to run,
// so sizes and virtual times do not move.
//
// Like GroupByKeySorted, keys are FNV-hashed once into an arena-backed
// open-addressing table; a second pass counts records per (group, parent)
// and a third scatters every value into one shared backing array. Every
// group's Groups header is carved from one shared [][]any and every
// per-parent slice is capacity-capped, so a call allocates the output, the
// two backing arrays and one CoGrouped box per key. Consumers must treat
// Groups as read-only; the caps make an append copy instead of clobbering a
// neighbor.
//
//starklint:hotpath
func CoGroupRecords(inputs [][]Record) []Record {
	np := len(inputs)
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	if n == 0 {
		return []Record{}
	}
	sc := groupScratchPool.Get().(*groupScratch)
	tsize := 1
	for tsize < 2*n {
		tsize <<= 1
	}
	mask := uint32(tsize - 1)
	table := sc.i32.Take(tsize) // 0 = empty, else group id + 1
	gidOf := sc.i32.Take(n)     // per record, in flat parent-major order
	firstPar := sc.i32.Take(n)  // per group: parent and index of its first record
	firstIdx := sc.i32.Take(n)
	ghash := sc.u32.Take(n)
	ngroups := int32(0)
	flat := 0
	for p, in := range inputs {
		for i := range in {
			key := in[i].Key
			h := fnv32aString(key)
			slot := h & mask
			for {
				g := table[slot]
				if g == 0 {
					table[slot] = ngroups + 1
					firstPar[ngroups] = int32(p)
					firstIdx[ngroups] = int32(i)
					ghash[ngroups] = h
					gidOf[flat] = ngroups
					ngroups++
					break
				}
				if ghash[g-1] == h && inputs[firstPar[g-1]][firstIdx[g-1]].Key == key {
					gidOf[flat] = g - 1
					break
				}
				slot = (slot + 1) & mask
			}
			flat++
		}
	}
	// cells are (group, parent) pairs in group-major order; their counts
	// become start offsets into the shared values backing.
	cells := int(ngroups) * np
	counts := sc.i32.Take(cells)
	flat = 0
	for p, in := range inputs {
		for range in {
			counts[int(gidOf[flat])*np+p]++
			flat++
		}
	}
	starts := sc.i32.Take(cells)
	var off int32
	for c := 0; c < cells; c++ {
		starts[c] = off
		off += counts[c]
	}
	backing := make([]any, n)
	cursor := sc.i32.Take(cells)
	flat = 0
	for p, in := range inputs {
		for i := range in {
			c := int(gidOf[flat])*np + p
			backing[starts[c]+cursor[c]] = in[i].Value
			cursor[c]++
			flat++
		}
	}
	headers := make([][]any, cells)
	out := make([]Record, ngroups)
	for g := 0; g < int(ngroups); g++ {
		hdr := headers[g*np : (g+1)*np : (g+1)*np]
		for p := range hdr {
			c := g*np + p
			if k := counts[c]; k > 0 {
				hdr[p] = backing[starts[c] : starts[c]+k : starts[c]+k]
			}
		}
		out[g] = Record{
			Key: inputs[firstPar[g]][firstIdx[g]].Key,
			//starklint:ignore hotalloc one CoGrouped box per key is inherent: Record.Value is an any and consumers type-assert the CoGrouped value, as JoinRecords does for Joined
			Value: CoGrouped{Groups: hdr},
		}
	}
	sc.i32.Reset()
	sc.u32.Reset()
	//starklint:ignore hotalloc sync.Pool.Put takes any but *groupScratch is a pointer, so the conversion stores the pointer in the interface word without allocating
	groupScratchPool.Put(sc)
	return out
}

// JoinRecords computes the inner join of two record slices: for every key
// present on both sides, the cross-product of left and right values as
// Joined pairs, keys ascending, left then right values in input order — the
// exact output the map-based rdd.Join produced. Both sides group through the
// arena-backed kernel and the sorted group lists merge linearly, so the only
// allocations besides grouping are the exact-size output slice and the
// Joined boxes the API requires.
//
//starklint:hotpath
func JoinRecords(left, right []Record) []Record {
	lg := GroupByKeySorted(left)
	rg := GroupByKeySorted(right)
	total := 0
	for i, j := 0, 0; i < len(lg) && j < len(rg); {
		switch {
		case lg[i].Key < rg[j].Key:
			i++
		case lg[i].Key > rg[j].Key:
			j++
		default:
			total += len(lg[i].Values) * len(rg[j].Values)
			i++
			j++
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]Record, 0, total)
	for i, j := 0, 0; i < len(lg) && j < len(rg); {
		switch {
		case lg[i].Key < rg[j].Key:
			i++
		case lg[i].Key > rg[j].Key:
			j++
		default:
			for _, lv := range lg[i].Values {
				for _, rv := range rg[j].Values {
					//starklint:ignore hotalloc one Joined box per output pair is inherent: Record.Value is an any and consumers type-assert the Joined value
					out = append(out, Record{Key: lg[i].Key, Value: Joined{Left: lv, Right: rv}})
				}
			}
			i++
			j++
		}
	}
	return out
}
