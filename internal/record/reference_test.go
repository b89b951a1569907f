package record

import "sort"

// GroupByKey is the map-based grouping the kernels replaced, kept as the
// reference the kernel tests compare against: key -> values in input
// order, plus the keys ascending.
func GroupByKey(rs []Record) (map[string][]any, []string) {
	m := make(map[string][]any, len(rs))
	var keys []string
	for _, r := range rs {
		if _, ok := m[r.Key]; !ok {
			keys = append(keys, r.Key)
		}
		m[r.Key] = append(m[r.Key], r.Value)
	}
	sort.Strings(keys)
	return m, keys
}

// coGroupMap is the map loop rdd.CoGroup ran before CoGroupRecords, kept
// verbatim as the oracle the kernel must reproduce exactly.
func coGroupMap(inputs [][]Record) []Record {
	n := len(inputs)
	grouped := make(map[string]*CoGrouped)
	var order []string
	for pi := 0; pi < n; pi++ {
		for _, rec := range inputs[pi] {
			cg, ok := grouped[rec.Key]
			if !ok {
				cg = &CoGrouped{Groups: make([][]any, n)}
				grouped[rec.Key] = cg
				order = append(order, rec.Key)
			}
			cg.Groups[pi] = append(cg.Groups[pi], rec.Value)
		}
	}
	out := make([]Record, 0, len(order))
	for _, k := range order {
		out = append(out, Record{Key: k, Value: *grouped[k]})
	}
	return out
}
