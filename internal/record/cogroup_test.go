package record

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// checkCoGroup fails t unless CoGroupRecords reproduces the map oracle
// exactly: key order, value order, group count and nil-vs-empty groups.
func checkCoGroup(t *testing.T, label string, inputs [][]Record) {
	t.Helper()
	got := CoGroupRecords(inputs)
	want := coGroupMap(inputs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CoGroupRecords differs from the map oracle\n got: %v\nwant: %v", label, got, want)
	}
}

// collidingKeys returns count distinct keys whose FNV-1a hashes agree in
// the low bits, so they all probe from one slot of a small table and force
// long probe chains. The first two share the full 32-bit hash, exercising
// the key comparison behind an equal hash.
var collidingKeys = sync.OnceValue(func() []string {
	seen := make(map[uint32]string)
	var keys []string
	for i := 0; len(keys) == 0; i++ {
		k := fmt.Sprintf("c%d", i)
		h := fnv32aString(k)
		if prev, ok := seen[h]; ok {
			keys = append(keys, prev, k)
		}
		seen[h] = k
	}
	const lowBits = 0xff
	low := fnv32aString(keys[0]) & lowBits
	for i := 0; len(keys) < 64; i++ {
		k := fmt.Sprintf("x%d", i)
		if fnv32aString(k)&lowBits == low {
			keys = append(keys, k)
		}
	}
	return keys
})

// randomCoGroupInputs draws one input shape per seed: 1-5 parents, some
// empty, keys from a pool whose size sets how heavily keys repeat, and an
// optional per-parent private key range so some keys live in one parent.
func randomCoGroupInputs(rng *rand.Rand) [][]Record {
	np := 1 + rng.Intn(5)
	inputs := make([][]Record, np)
	var pool []string
	switch rng.Intn(4) {
	case 0: // heavily duplicated
		for i := 0; i < 1+rng.Intn(4); i++ {
			pool = append(pool, fmt.Sprintf("d%d", i))
		}
	case 1: // many distinct keys
		for i := 0; i < 2000+rng.Intn(2000); i++ {
			pool = append(pool, fmt.Sprintf("m%d", i))
		}
	case 2: // long probe chains
		pool = collidingKeys()
	default:
		for i := 0; i < 1+rng.Intn(60); i++ {
			pool = append(pool, fmt.Sprintf("k%02d", i))
		}
	}
	private := rng.Intn(2) == 0
	for p := range inputs {
		if rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 {
				inputs[p] = []Record{}
			}
			continue
		}
		n := rng.Intn(3 * len(pool))
		rs := make([]Record, n)
		for i := range rs {
			key := pool[rng.Intn(len(pool))]
			if private && rng.Intn(3) == 0 {
				key = fmt.Sprintf("p%d-%d", p, rng.Intn(8))
			}
			var v any = p*1_000_000 + i
			if rng.Intn(10) == 0 {
				v = nil
			}
			rs[i] = Record{Key: key, Value: v}
		}
		inputs[p] = rs
	}
	return inputs
}

func TestCoGroupRecordsMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		checkCoGroup(t, fmt.Sprintf("seed %d", seed), randomCoGroupInputs(rand.New(rand.NewSource(seed))))
	}
	ks := collidingKeys()
	fixed := map[string][][]Record{
		"one empty parent":     {nil},
		"all parents empty":    {nil, {}, nil, {}, nil},
		"single record":        {{Pair("k", 1)}},
		"key only in parent 2": {{Pair("a", 1)}, {Pair("a", 2)}, {Pair("b", 3)}},
		"keys first seen late": {nil, {Pair("z", 1), Pair("y", 2)}, {Pair("y", 3), Pair("x", 4), Pair("z", 5)}},
		"full hash collision":  {{Pair(ks[0], 1), Pair(ks[1], 2)}, {Pair(ks[1], 3), Pair(ks[0], 4)}},
	}
	for label, inputs := range fixed {
		checkCoGroup(t, label, inputs)
	}
}

func TestCoGroupRecordsGroupsAreCapped(t *testing.T) {
	out := CoGroupRecords([][]Record{{Pair("a", 1), Pair("b", 2)}, {Pair("a", 3)}})
	a := out[0].Value.(CoGrouped)
	b := out[1].Value.(CoGrouped)
	_ = append(a.Groups[0], 99)
	_ = append(a.Groups, []any{99})
	if b.Groups[0][0] != 2 || a.Groups[1][0] != 3 || b.Groups[1] != nil {
		t.Fatalf("append through one group clobbered a neighbor: %v %v", a, b)
	}
}

// FuzzCoGroupRecords decodes the fuzz bytes into 1-5 parents of records
// (each byte pair picks a parent and a key from a small alphabet) and
// checks the kernel against the map oracle.
func FuzzCoGroupRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 'a', 1, 'a', 1, 'b'})
	f.Add([]byte{4, 3, 'k', 3, 'k', 3, 'j', 0, 'k'})
	f.Fuzz(func(t *testing.T, data []byte) {
		np := 1
		if len(data) > 0 {
			np += int(data[0]) % 5
			data = data[1:]
		}
		inputs := make([][]Record, np)
		for i := 0; i+1 < len(data); i += 2 {
			p := int(data[i]) % np
			key := string(rune('a' + data[i+1]%16))
			inputs[p] = append(inputs[p], Pair(key, i))
		}
		checkCoGroup(t, "fuzz", inputs)
	})
}
