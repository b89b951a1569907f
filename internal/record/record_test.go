package record

import (
	"testing"
	"testing/quick"
)

func TestSizeOfBasics(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 0},
		{true, 1},
		{int64(7), 8},
		{3.14, 8},
		{"abc", 19},
		{[]byte{1, 2, 3}, 27},
		{[]int64{1, 2}, 40},
		{[]string{"a"}, 41},
	}
	for _, c := range cases {
		if got := SizeOf(c.v); got != c.want {
			t.Errorf("SizeOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSizeOfComposites(t *testing.T) {
	cg := CoGrouped{Groups: [][]any{{int64(1)}, {"x"}}}
	if got := SizeOf(cg); got <= 0 {
		t.Fatalf("SizeOf(CoGrouped) = %d", got)
	}
	j := Joined{Left: "a", Right: int64(1)}
	if got := SizeOf(j); got != 16+17+8 {
		t.Fatalf("SizeOf(Joined) = %d", got)
	}
	if got := SizeOf(struct{ X int }{1}); got != 64 {
		t.Fatalf("unknown type fallback = %d", got)
	}
}

// TestSizeOfCoGroupedSumsGroups pins the CoGrouped arm to the per-group
// []any sizes (nil groups included) and checks it sizes a boxed value
// without allocating.
func TestSizeOfCoGroupedSumsGroups(t *testing.T) {
	groups := [][]any{{int64(1), "ab"}, nil, {}, {[]byte{1}}}
	var v any = CoGrouped{Groups: groups}
	want := int64(sliceOverhead)
	for _, g := range groups {
		want += SizeOf(g)
	}
	if got := SizeOf(v); got != want {
		t.Fatalf("SizeOf(CoGrouped) = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = SizeOf(v) }); allocs != 0 {
		t.Fatalf("SizeOf(CoGrouped) allocates %.1f times per call, want 0", allocs)
	}
}

func TestSizeMonotoneInStringLength(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > len(b) {
			a, b = b, a
		}
		return SizeOf(a) <= SizeOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeOfSliceIsSumPlusOverhead(t *testing.T) {
	f := func(keys []string) bool {
		rs := make([]Record, len(keys))
		var sum int64 = sliceOverhead
		for i, k := range keys {
			rs[i] = Pair(k, int64(i))
			sum += SizeOfRecord(rs[i])
		}
		return SizeOfSlice(rs) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupByKey(t *testing.T) {
	rs := []Record{Pair("b", 1), Pair("a", 2), Pair("b", 3)}
	m, keys := GroupByKey(rs)
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	if len(m["b"]) != 2 || m["b"][0] != 1 || m["b"][1] != 3 {
		t.Fatalf("m[b] = %v", m["b"])
	}
}

func TestAsInt64(t *testing.T) {
	for _, v := range []any{int(5), int32(5), int64(5), uint32(5), uint64(5), float64(5)} {
		got, ok := AsInt64(v)
		if !ok || got != 5 {
			t.Errorf("AsInt64(%T) = %d, %v", v, got, ok)
		}
	}
	if _, ok := AsInt64("5"); ok {
		t.Error("AsInt64(string) succeeded")
	}
}

func TestCloneIndependent(t *testing.T) {
	rs := []Record{Pair("a", 1)}
	c := Clone(rs)
	c[0].Key = "z"
	if rs[0].Key != "a" {
		t.Fatal("Clone aliases input")
	}
}
