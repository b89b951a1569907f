package hotalloc

import "strconv"

// groupCold does everything the positive fixture does, unannotated: the
// analyzer must stay silent off the hot path.
func groupCold(rows []row) string {
	seen := make(map[int64]bool)
	var keys []int64
	name := ""
	for _, r := range rows {
		seen[r.key] = true
		keys = append(keys, r.key)
		name += r.val
		sink(r.key)
	}
	return name
}

// sizedHot pre-sizes every buffer and calls only concrete-typed helpers:
// the sanctioned kernel idiom.
//
//starklint:hotpath
func sizedHot(rows []row) []int64 {
	keys := make([]int64, 0, len(rows))
	for _, r := range rows {
		keys = append(keys, r.key)
		sinkConcrete(r.key)
	}
	buf := make([]byte, 0, 16)
	buf = strconv.AppendInt(buf, int64(len(rows)), 10)
	_ = len(buf)
	return keys
}

// passHot moves already-boxed values between interface fields: no new box.
//
//starklint:hotpath
func passHot(in []boxed) []boxed {
	out := make([]boxed, len(in))
	for i := range in {
		out[i] = boxed{v: in[i].v}
	}
	out = append(out, boxed{v: nil})
	return out
}
