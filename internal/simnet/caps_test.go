package simnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"distcoord/internal/graph"
)

// TestCapsExhaustive pins the capability seam: every exported interface
// of this package documented as an "optional Coordinator capability"
// must appear as a field type of Caps, so a newly added capability
// cannot bypass the single resolver. The set of capability interfaces is
// discovered from the package source (the doc-comment convention every
// capability already follows), not hand-maintained here.
func TestCapsExhaustive(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if _, isIface := ts.Type.(*ast.InterfaceType); !isIface || !ts.Name.IsExported() {
						continue
					}
					doc := gd.Doc.Text()
					if ts.Doc != nil {
						doc = ts.Doc.Text()
					}
					if strings.Contains(doc, "optional Coordinator capability") {
						declared[ts.Name.Name] = true
					}
				}
			}
		}
	}
	if len(declared) < 4 {
		t.Fatalf("capability discovery broke: found only %v (doc-comment convention changed?)", declared)
	}

	covered := map[string]bool{}
	ct := reflect.TypeOf(Caps{})
	for i := 0; i < ct.NumField(); i++ {
		covered[ct.Field(i).Type.Name()] = true
	}
	for name := range declared {
		if !covered[name] {
			t.Errorf("capability interface %s is not a field of Caps; route it through the Capabilities resolver", name)
		}
	}
}

// capsProbe implements every capability; capsNone implements none.
type capsProbe struct {
	NopListener
}

func (capsProbe) Name() string                                              { return "probe" }
func (capsProbe) Decide(*State, *Flow, graph.NodeID, float64) int           { return 0 }
func (capsProbe) Interval() float64                                         { return 1 }
func (capsProbe) Tick(*State, float64)                                      {}
func (capsProbe) Reset(*State)                                              {}
func (capsProbe) OnTopologyChange(*State, float64)                          {}
func (capsProbe) DecideBatch(*State, []*Flow, graph.NodeID, float64, []int) {}
func (capsProbe) LastDecideTiming() (DecideTiming, bool)                    { return DecideTiming{}, false }

type capsNone struct{}

func (capsNone) Name() string                                    { return "none" }
func (capsNone) Decide(*State, *Flow, graph.NodeID, float64) int { return 0 }

// capsDeclared self-reports an explicit capability set (the
// wire-negotiated path a networked coordinator takes).
type capsDeclared struct {
	capsNone
	caps Caps
}

func (c capsDeclared) Capabilities() Caps { return c.caps }

func TestCapabilitiesResolution(t *testing.T) {
	all := Capabilities(capsProbe{})
	if all.Flow == nil || all.Ticker == nil || all.Resetter == nil || all.Topology == nil || all.Batch == nil || all.Timing == nil {
		t.Fatalf("full-capability coordinator resolved to %+v", all)
	}
	none := Capabilities(capsNone{})
	if none != (Caps{}) {
		t.Fatalf("capability-free coordinator resolved to %+v", none)
	}
}

func TestCapabilitiesPrefersProvider(t *testing.T) {
	// A provider's self-report wins over type assertions: capsDeclared
	// embeds no capabilities, but declares a Batch handle.
	var bd BatchDecider = capsProbe{}
	got := Capabilities(capsDeclared{caps: Caps{Batch: bd}})
	if got.Batch == nil {
		t.Fatal("declared Batch capability was dropped")
	}
	if got.Ticker != nil || got.Flow != nil {
		t.Fatalf("provider self-report should be authoritative, got %+v", got)
	}
	// And an empty self-report suppresses everything, even if the dynamic
	// type would assert true.
	if got := Capabilities(capsDeclared{}); got != (Caps{}) {
		t.Fatalf("empty self-report resolved to %+v", got)
	}
}
