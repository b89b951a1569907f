package hotalloc

import "sort"

// sortHot mirrors the counting-sort kernels' sparse fallback: sort.Slice
// boxes the slice into an interface, tolerated off the common path.
//
//starklint:hotpath
func sortHot(keys []int64) {
	//starklint:ignore hotalloc fixture: sparse fallback path, boxing is off the common path
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
}

// wrapHot boxes one value per output element, as the data model requires.
//
//starklint:hotpath
func wrapHot(keys []int64) []boxed {
	out := make([]boxed, len(keys))
	for i, k := range keys {
		//starklint:ignore hotalloc fixture: the output's data model is an interface field
		out[i] = boxed{v: k}
	}
	return out
}
