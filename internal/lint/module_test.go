package lint_test

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"strings"
	"testing"

	"stark/internal/lint"
)

// TestModuleAnalyzerFixtures runs the interprocedural suite over each
// module analyzer's golden fixture package: positives must fire, negatives
// must stay silent, suppressed sites must be silenced by their directives.
func TestModuleAnalyzerFixtures(t *testing.T) {
	for _, a := range lint.ModuleAnalyzers() {
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, filepath.Join("testdata", a.Name), "fixture/"+a.Name)
			diags := lint.RunModule([]*lint.Package{pkg}, lint.PermissiveConfig(), lint.ModuleAnalyzers())
			want := wantedFindings(pkg)
			if len(want) == 0 {
				t.Fatalf("fixture for %s declares no expected findings", a.Name)
			}
			fired := false
			for _, w := range want {
				if strings.HasSuffix(w, ":"+a.Name) {
					fired = true
				}
			}
			if !fired {
				t.Fatalf("fixture for %s expects no findings from its own analyzer", a.Name)
			}
			diffFindings(t, want, gotFindings(diags), diags)
		})
	}
}

// TestSuppressionSpansMultiLineExpr pins the directive-matching fix: a
// directive trailing part of a wrapped expression suppresses the finding
// at the expression's start line, but a directive inside a closure must
// not leak to the enclosing call.
func TestSuppressionSpansMultiLineExpr(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "suppressspan"), "fixture/suppressspan")
	diags := lint.Run(pkg, lint.PermissiveConfig(), lint.Analyzers())
	want := wantedFindings(pkg)
	diffFindings(t, want, gotFindings(diags), diags)
}

// checkModuleSource type-checks an in-memory file as the given import path
// and runs the interprocedural suite under the repo's DefaultConfig.
func checkModuleSource(t *testing.T, path, src string) []lint.Diagnostic {
	t.Helper()
	fset, imp := fixtureImporter(t)
	f, err := parser.ParseFile(fset, "synthetic.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.Check(fset, path, []*ast.File{f}, imp)
	if err != nil {
		t.Fatal(err)
	}
	return lint.RunModule([]*lint.Package{pkg}, lint.DefaultConfig(), lint.ModuleAnalyzers())
}

// TestSeededPlaneMutationInEngine pins plane isolation in
// stark/internal/engine under the default policy: a planeCtx method that
// applies a cache put straight to the cluster must fail the lint, and the
// buffered twin — the put logged in the overlay and replayed on the event
// loop through the batch entry — must pass with zero findings and zero
// suppressions.
func TestSeededPlaneMutationInEngine(t *testing.T) {
	const direct = `package engine

type Cluster struct{ recency []int }

func (c *Cluster) CachePut(id int) { c.recency = append(c.recency, id) }

type Engine struct{ cl *Cluster }

type planeCtx struct {
	e   *Engine
	ops []int
}

// cachePut mutates the cluster from the data plane: the raw mutator call
// must flag.
func (px *planeCtx) cachePut(id int) {
	px.e.cl.CachePut(id)
}
`
	diags := checkModuleSource(t, "stark/internal/engine", direct)
	if len(diags) != 1 || diags[0].Analyzer != "planetaint" {
		t.Fatalf("want exactly one planetaint finding for the direct mutation, got %v", diags)
	}

	const buffered = `package engine

type Cluster struct{ recency []int }

func (c *Cluster) CachePut(id int) { c.recency = append(c.recency, id) }

type Engine struct{ cl *Cluster }

type planeCtx struct {
	e   *Engine
	ops []int
}

type batchEntry struct{ px *planeCtx }

// cachePut logs the put for the join.
func (px *planeCtx) cachePut(id int) {
	px.ops = append(px.ops, id)
}

// replayEffects applies the logged puts on the event loop.
func (e *Engine) replayEffects(be *batchEntry) {
	for _, id := range be.px.ops {
		e.cl.CachePut(id)
	}
}
`
	if diags := checkModuleSource(t, "stark/internal/engine", buffered); len(diags) != 0 {
		t.Fatalf("buffered side effect replayed through the batch entry must lint clean, got %v", diags)
	}
}

// TestSeededSentinelFlattenInEngine pins the second acceptance criterion:
// re-wrapping a typed sentinel with %v instead of %w in the engine scope
// must fail the lint, with the lost sentinel named in the message.
func TestSeededSentinelFlattenInEngine(t *testing.T) {
	const src = `package engine

import (
	"errors"
	"fmt"
)

var ErrOOM = errors.New("engine: out of cache memory")

func admit(ok bool) error {
	if !ok {
		return ErrOOM
	}
	return nil
}

func wrapStep(id int) error {
	if err := admit(false); err != nil {
		return fmt.Errorf("step %d: %v", id, err)
	}
	return nil
}
`
	diags := checkModuleSource(t, "stark/internal/engine", src)
	if len(diags) != 1 || diags[0].Analyzer != "errwrap" {
		t.Fatalf("want exactly one errwrap finding for the %%v flatten, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "ErrOOM") {
		t.Fatalf("finding must name the sentinel whose identity is lost, got: %s", diags[0].Message)
	}

	const fixed = `package engine

import (
	"errors"
	"fmt"
)

var ErrOOM = errors.New("engine: out of cache memory")

func admit(ok bool) error {
	if !ok {
		return ErrOOM
	}
	return nil
}

func wrapStep(id int) error {
	if err := admit(false); err != nil {
		return fmt.Errorf("step %d: %w", id, err)
	}
	return nil
}
`
	if diags := checkModuleSource(t, "stark/internal/engine", fixed); len(diags) != 0 {
		t.Fatalf("%%w wrapping must lint clean, got %v", diags)
	}
}
