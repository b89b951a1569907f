// Package hotalloc exercises the hot-path allocation lint. Only functions
// annotated //starklint:hotpath — and everything they reach through the
// call graph — are audited; identical constructs in unannotated code stay
// silent.
package hotalloc

type row struct {
	key int64
	val string
}

// boxed carries an interface-typed field, like record.Record's Value.
type boxed struct {
	v any
}

func sink(v any) {}

func sinkConcrete(v int64) {}
