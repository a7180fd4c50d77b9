// Command unreached lists the functions of this module that no program
// links. It builds every main package of the module and of the bench
// module with inlining off, takes the union of their symbols (`go tool
// nm`), and reports each function or method with a Go body, declared in a
// non-test file of the host build, that no binary holds. A main package's
// functions are looked up in its own binary only.
//
// Run it from the module root (`make unreached`). It exits 1 when an
// unreached function is not on the allowlist, or when an allowlist entry
// names no declaration or a function some program links.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowed holds the functions that stay although no program links them,
// each with its reason. Keys are linker names.
var allowed = map[string]string{
	// Test oracles.
	"safeland/internal/nn.ArgmaxChannels":                     "oracle of the head-resolution argmax segment.Model.PredictCtx takes",
	"safeland/internal/segment.(*Model).Logits":               "full-resolution logits behind TestGoldenInferenceDigest and the argmax test",
	"safeland/internal/segment.(*Model).LogitsCtx":            "Logits's body, with the odd-frame error",
	"safeland/internal/imaging.(*LabelMap).DistanceTransform": "the parent zone field in zones_ref_test.go",
	"safeland/internal/uav.DriftBuffer":                       "the drift bound that sizes core.DefaultZoneConfig's road buffer, checked by a scenario test",

	// Fixtures and probes of tests that survive.
	"safeland/internal/nn.SharesParams":               "probe of the replicas' weight sharing",
	"safeland/internal/nn.(*Tensor).SameShape":        "probe of the parity tests",
	"safeland/internal/nn.(*Scratch).Reuses":          "probe of the arena tests",
	"safeland/internal/segment.ToTensor":              "fixture of the monitor and segment tests",
	"safeland/internal/segment.(*Model).PredictProbs": "fixture of the monitor and segment tests",
	"safeland/internal/scenario.Axes.Truncate":        "the 2-per-axis grid of TestE11ParallelMatchesSequential",
	"safeland/internal/imaging.(*Image).Clone":        "image fixture",
	"safeland/internal/imaging.(*LabelMap).Clone":     "label-map fixture",
	"safeland/internal/imaging.(*Map).Clone":          "map fixture",
	"safeland/internal/imaging.(*LabelMap).Crop":      "label-map fixture",
	"safeland/internal/imaging.(*Map).Crop":           "map fixture",
	"safeland/internal/imaging.(*Map).Mean":           "map probe",
	"safeland/internal/imaging.(*Map).Fill":           "map fixture",
	"safeland/internal/imaging.(*LabelMap).In":        "label-map probe",
	"safeland/internal/imaging.(*LabelMap).Set":       "label-map fixture",
	"safeland/internal/urban.RectM.CenterX":           "layout probe of the urban, riskmap and uav tests",
	"safeland/internal/urban.RectM.CenterY":           "layout probe of the urban, riskmap and uav tests",
	"safeland/internal/core.(*DecisionModule).State":  "probe of the Decision Module tests",
	"safeland/internal/core.(*DecisionModule).Trials": "probe of the Decision Module tests",
	"safeland.(*replicaPool).idle":                    "probe of the engine, contract and fault tests",

	// The root package's exported API.
	"safeland.(*Router).Shards":        "exported API",
	"safeland.(*SafetyTrigger).Reason": "exported API; the per-decision audit record will read it",
	"safeland.(*Session).Trigger":      "exported API",
	"safeland.(*Session).Vehicle":      "exported API",

	// String methods, for printing the values.
	"safeland/internal/hazard.Category.String":     "String method",
	"safeland/internal/sora.CriterionKind.String":  "String method",
	"safeland/internal/sora.MitigationType.String": "String method",
}

// pkg is one package of the module, as `go list` reports it for the host.
type pkg struct {
	path, name, dir string
	files           []string
}

func main() {
	bad, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

func run() (bad bool, err error) {
	pkgs, err := list()
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	linked := map[string]bool{}         // every program's symbols
	own := map[string]map[string]bool{} // each main package's binary
	for i, p := range pkgs {
		if p.name != "main" {
			continue
		}
		syms, err := build(".", p.path, filepath.Join(tmp, fmt.Sprint(i)))
		if err != nil {
			return false, err
		}
		own[p.path] = syms
		for s := range syms {
			linked[s] = true
		}
	}
	syms, err := build("bench", ".", filepath.Join(tmp, "bench"))
	if err != nil {
		return false, err
	}
	for s := range syms {
		linked[s] = true
	}

	declared := map[string]bool{}
	var lines []string
	for _, p := range pkgs {
		names, err := funcs(p)
		if err != nil {
			return false, err
		}
		for _, name := range names {
			sym := p.path + "." + name
			declared[sym] = true
			if p.name == "main" && own[p.path]["main."+name] || p.name != "main" && linked[sym] {
				if _, ok := allowed[sym]; ok {
					lines = append(lines, sym+"\tallowlisted, but a program links it")
					bad = true
				}
				continue
			}
			if why, ok := allowed[sym]; ok {
				lines = append(lines, sym+"\tallowed: "+why)
			} else {
				lines = append(lines, sym+"\tunreached")
				bad = true
			}
		}
	}
	for sym := range allowed {
		if !declared[sym] {
			lines = append(lines, sym+"\tallowlisted, but declared nowhere")
			bad = true
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	return bad, nil
}

// list returns the module's packages with their non-test Go files for the
// host's GOOS and GOARCH.
func list() ([]pkg, error) {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []pkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) < 4 {
			return nil, fmt.Errorf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, pkg{path: f[0], name: f[1], dir: f[2], files: f[3:]})
	}
	return pkgs, nil
}

// build builds one program with inlining off and returns the text symbols
// of its binary, instantiated generics without their type arguments so
// each reads as its declaration.
func build(dir, pkgPath, bin string) (map[string]bool, error) {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, pkgPath)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("build %s in %s: %w", pkgPath, dir, err)
	}
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return nil, fmt.Errorf("nm %s: %w", bin, err)
	}
	syms := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
			syms[stripTypeArgs(strings.Join(f[2:], " "))] = true
		}
	}
	return syms, nil
}

func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcs returns the linker names, less the package path, of the functions
// and methods with a Go body that a package declares, init functions aside.
func funcs(p pkg) ([]string, error) {
	var names []string
	fset := token.NewFileSet()
	for _, file := range p.files {
		f, err := parser.ParseFile(fset, filepath.Join(p.dir, file), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && (fd.Recv != nil || fd.Name.Name != "init") {
				names = append(names, linkName(fd))
			}
		}
	}
	return names, nil
}

// linkName spells a declaration as the linker does: F, T.M or (*T).M.
func linkName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star, isStar := t.(*ast.StarExpr)
	if isStar {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if isStar {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}
