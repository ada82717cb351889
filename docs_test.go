package capmaestro_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"capmaestro/internal/experiments"
)

var (
	// fenceRE matches a fenced code block; inlineRE an inline code span,
	// which Markdown lets wrap across lines.
	fenceRE  = regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```")
	inlineRE = regexp.MustCompile("`([^`]+)`")

	goRunRE    = regexp.MustCompile(`go run (\./[\w./-]+)`)
	expRunRE   = regexp.MustCompile(`(?m)(?:^|\s)(?:\./)?(?:cmd/)?experiments\s[^\n]*?-run[ =](\S+)`)
	scenVerbRE = regexp.MustCompile(`(?:^|\s|/)scenariorun\s+([a-z][\w-]*)`)
	placeRE    = regexp.MustCompile(`^<[^>]+>$`)
)

// codeSpans returns the fenced blocks and inline code spans of a Markdown
// document, with line breaks inside inline spans folded to spaces.
func codeSpans(doc string) []string {
	var out []string
	for _, m := range fenceRE.FindAllStringSubmatch(doc, -1) {
		out = append(out, m[1])
	}
	for _, m := range inlineRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(doc, ""), -1) {
		out = append(out, strings.ReplaceAll(m[1], "\n", " "))
	}
	return out
}

// scenariorunVerbs reads the verbs cmd/scenariorun dispatches from the
// string cases of its `switch verb`.
func scenariorunVerbs(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/scenariorun/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	verbs := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		if tag, ok := sw.Tag.(*ast.Ident); !ok || tag.Name != "verb" {
			return true
		}
		for _, stmt := range sw.Body.List {
			for _, e := range stmt.(*ast.CaseClause).List {
				if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					v, _ := strconv.Unquote(lit.Value)
					verbs[v] = true
				}
			}
		}
		return false
	})
	if len(verbs) == 0 {
		t.Fatal("no `switch verb` cases found in cmd/scenariorun/main.go")
	}
	return verbs
}

// TestDocumentedCommands checks that the commands README.md,
// EXPERIMENTS.md and DESIGN.md quote still resolve: every `go run ./DIR`
// names a main package in this module, every `experiments -run IDS`
// names registered experiments (or all), and every `scenariorun VERB` is
// a verb the binary accepts. Placeholders such as <id> pass.
func TestDocumentedCommands(t *testing.T) {
	verbs := scenariorunVerbs(t)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeSpans(string(data)) {
			for _, m := range goRunRE.FindAllStringSubmatch(code, -1) {
				if pkg, err := build.ImportDir(m[1], 0); err != nil || pkg.Name != "main" {
					t.Errorf("%s: `go run %s` names no main package in this module", doc, m[1])
				}
			}
			for _, m := range expRunRE.FindAllStringSubmatch(code, -1) {
				for _, id := range strings.Split(m[1], ",") {
					if _, ok := experiments.Find(id); !ok && id != "all" && !placeRE.MatchString(id) {
						t.Errorf("%s: `experiments -run %s`: %q is not a registered experiment", doc, m[1], id)
					}
				}
			}
			for _, m := range scenVerbRE.FindAllStringSubmatch(code, -1) {
				if !verbs[m[1]] {
					t.Errorf("%s: `scenariorun %s` is not a verb cmd/scenariorun accepts", doc, m[1])
				}
			}
		}
	}
}
