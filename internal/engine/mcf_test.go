package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"stark/internal/partition"
	"stark/internal/rdd"
)

// checkMCFIndex compares the incremental MCF index with the rescan oracle
// on every executor, the MCF offer order with the rescan-sorted order, and
// unitCachedOn with the namespace scan for every live unit.
func checkMCFIndex(t *testing.T, e *Engine, where string) {
	t.Helper()
	n := e.cl.NumExecutors()
	score := make([]int, n)
	for exec := 0; exec < n; exec++ {
		got, want := e.unitRefs(exec), e.rescanUnits(exec)
		if len(got) != len(want) {
			t.Fatalf("%s: executor %d index holds %d units, rescan %d", where, exec, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("%s: executor %d unit %s/%d index %d, rescan %d", where, exec, k.ns, k.unit, got[k], c)
			}
		}
		if e.cl.Executor(exec).Dead() && len(want) != 0 {
			t.Fatalf("%s: dead executor %d still caches %d units", where, exec, len(want))
		}
		score[exec] = len(want)
	}
	offers := e.remoteOffers()
	want := append([]int(nil), offers...)
	sort.SliceStable(want, func(a, b int) bool {
		if score[want[a]] != score[want[b]] {
			return score[want[a]] < score[want[b]]
		}
		return want[a] < want[b]
	})
	if fmt.Sprint(offers) != fmt.Sprint(want) {
		t.Fatalf("%s: MCF offers %v, rescan order %v", where, offers, want)
	}
	for ns := range e.nsParts {
		for _, unit := range e.loc.Units(ns) {
			for exec := 0; exec < n; exec++ {
				if got, want := e.unitCachedOn(ns, unit, exec), e.scanUnitCachedOn(ns, unit, exec); got != want {
					t.Fatalf("%s: unitCachedOn(%s/%d, %d) = %v, scan %v", where, ns, unit, exec, got, want)
				}
			}
		}
	}
}

// TestMCFIndexMatchesRescan drives random sequences of cache puts into small
// stores (so evictions happen), DropBlock, executor kills and restarts,
// ReportRDD-driven Group Tree splits and merges, and driver crash + journal
// replay, and checks the index against the rescan after every step. The
// STARK_CHECK_MCF oracle is on throughout, so reads inside the engine
// (eviction de-replication, the restart sweep) are checked too.
func TestMCFIndexMatchesRescan(t *testing.T) {
	defer func(old bool) { mcfCheck = old }(mcfCheck)
	mcfCheck = true
	var puts, evictions, drops, kills, restarts, splits, merges, crashes int
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := nsConfig()
		cfg.Features.Extendable = true
		cfg.Features.MCF = true
		cfg.DriverRecovery = true
		cfg.Cluster.MemoryPerExecutor = 24 << 10
		cfg.Groups.MaxBytes = 1500
		cfg.Groups.MinBytes = 600
		cfg.Groups.Window = 1
		cfg.Seed = seed
		e := New(cfg)
		g := e.Graph()
		var nsRDDs []*rdd.RDD
		for i, ns := range []string{"a", "b"} {
			p := partition.NewHash(8 >> i)
			if err := e.RegisterNamespace(ns, p, 1); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 3; j++ {
				src := g.Source(fmt.Sprintf("%s-src%d", ns, j), dataset(60, 2), true)
				lp := g.LocalityPartitionBy(src, fmt.Sprintf("%s-lp%d", ns, j), p, ns)
				lp.CacheFlag = true
				e.TrackNamespaceRDD(lp)
				nsRDDs = append(nsRDDs, lp)
			}
		}
		plain := g.Source("plain", dataset(60, 4), true)
		all := append([]*rdd.RDD{plain}, nsRDDs...)
		n := e.cl.NumExecutors()
		for step := 0; step < 40; step++ {
			r := all[rng.Intn(len(all))]
			id := blockID(r.ID, rng.Intn(r.Parts))
			exec := rng.Intn(n)
			switch k := rng.Intn(12); {
			case k < 5:
				puts++
				evictions += len(e.cl.CachePut(exec, id, nil, int64(1+rng.Intn(8<<10))))
			case k == 5:
				if e.DriverDown() {
					break
				}
				if _, _, err := e.Count(nsRDDs[rng.Intn(len(nsRDDs))]); err != nil {
					t.Fatalf("seed %d step %d: count: %v", seed, step, err)
				}
			case k < 8:
				drops++
				e.cl.DropBlock(exec, id)
			case k == 8:
				if len(e.cl.AliveExecutors()) > 2 && !e.cl.Executor(exec).Dead() {
					kills++
					e.KillExecutor(exec)
				}
			case k == 9:
				if e.cl.Executor(exec).Dead() {
					restarts++
					e.RestartExecutor(exec)
				}
			case k == 10:
				lp := nsRDDs[rng.Intn(len(nsRDDs))]
				lp.PartBytes = make([]int64, lp.Parts)
				for p := range lp.PartBytes {
					lp.PartBytes[p] = rng.Int63n(1000)
				}
				changes, err := e.ReportRDD(lp)
				if err != nil {
					t.Fatalf("seed %d step %d: report: %v", seed, step, err)
				}
				for _, ch := range changes {
					if len(ch.After) == 2 {
						splits++
					} else {
						merges++
					}
				}
			default:
				// The steps between a crash and the restart run against
				// the wiped driver state. The tail is never torn: losing a
				// KindRDDTrack record would hide a cached RDD from the
				// nsRDDs scan but not from the index (DESIGN.md §17).
				if e.DriverDown() {
					e.RestartDriver()
					e.Loop().Run()
				} else {
					crashes++
					e.CrashDriver(0)
				}
			}
			checkMCFIndex(t, e, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
	for name, c := range map[string]int{"puts": puts, "evictions": evictions, "drops": drops,
		"kills": kills, "restarts": restarts, "splits": splits, "merges": merges, "driver crashes": crashes} {
		if c == 0 {
			t.Errorf("no %s across all seeds; the sequences no longer exercise them", name)
		}
	}
}

// TestMCFCheckDetectsDrift proves the STARK_CHECK_MCF oracle fires: an index
// entry removed behind the observer's back panics on the next read.
func TestMCFCheckDetectsDrift(t *testing.T) {
	defer func(old bool) { mcfCheck = old }(mcfCheck)
	mcfCheck = true
	e := New(nsConfig())
	g := e.Graph()
	p := partition.NewHash(4)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	lp := g.LocalityPartitionBy(g.Source("s", dataset(40, 2), false), "lp", p, "ns")
	e.TrackNamespaceRDD(lp)
	e.cl.CachePut(0, blockID(lp.ID, 1), nil, 10)
	if got := len(e.unitRefs(0)); got != 1 {
		t.Fatalf("units cached = %d, want 1", got)
	}
	delete(e.mcf.refs[0], unitID{"ns", 1})
	defer func() {
		if recover() == nil {
			t.Fatal("tampered index passed the oracle")
		}
	}()
	e.unitRefs(0)
}
