package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches golden-diagnostic markers in fixture sources:
// `// want "re"` expects a diagnostic on the same line whose
// "rule: message" rendering matches the regexp; `// want+1 "re"`
// (or any signed offset) anchors the expectation that many lines
// below, for diagnostics reported on comment-only lines.
var wantRe = regexp.MustCompile(`// want([+-][0-9]+)? "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

func readExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var expects []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				offset := 0
				if m[1] != "" {
					offset, err = strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want offset %q", e.Name(), i+1, m[1])
					}
				}
				pattern := strings.ReplaceAll(m[2], `\"`, `"`)
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, pattern, err)
				}
				expects = append(expects, &expectation{file: e.Name(), line: i + 1 + offset, re: re, raw: pattern})
			}
		}
	}
	return expects
}

// matchDiagnostics verifies diags against the // want markers in dir, in
// both directions: every marker must be satisfied and every diagnostic
// must be expected.
func matchDiagnostics(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	expects := readExpectations(t, dir)
	for _, d := range diags {
		rendered := d.Rule + ": " + d.Message
		matched := false
		for _, e := range expects {
			if e.file == filepath.Base(d.Path) && e.line == d.Line && e.re.MatchString(rendered) {
				e.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("missing diagnostic at %s:%d matching %q", e.file, e.line, e.raw)
		}
	}
}

// checkFixture analyzes one fixture package with the per-file rules and
// verifies the diagnostics against the fixture's markers.
func checkFixture(t *testing.T, name, importPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := NewLoader(".").LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	matchDiagnostics(t, dir, Check(pkg))
}

// checkProgramFixture analyzes one fixture package with the
// whole-program machinery — directive hygiene plus the given check —
// skipping the per-file rules (the digestpure fixture legitimately reads
// the wall clock, which the wallclock rule would flag).
func checkProgramFixture(t *testing.T, name, importPath string, check func(*Program) []Diagnostic) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := NewLoader(".").LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{pkg})
	diags := append(prog.Diagnostics(), check(prog)...)
	matchDiagnostics(t, dir, diags)
}

func TestRuleFixtures(t *testing.T) {
	for _, name := range []string{"maprange", "wallclock", "globalrand", "floateq", "naketime", "nakedrecover", "allow"} {
		t.Run(name, func(t *testing.T) {
			checkFixture(t, name, "fixture/"+name)
		})
	}
}

// TestWallclockExemptInObs loads the wallclock fixture under an
// internal/obs import path: every wall-clock read that the rule flags
// elsewhere is legal there, so no diagnostics survive.
func TestWallclockExemptInObs(t *testing.T) {
	pkg, err := NewLoader(".").LoadDir(filepath.Join("testdata", "src", "wallclock"), "smart/internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Check(pkg); len(diags) != 0 {
		t.Fatalf("internal/obs should be exempt from wallclock, got %d diagnostics: %v", len(diags), diags)
	}
}

// TestRecoverExemptInResilience loads the nakedrecover fixture under an
// internal/resilience import path: every recover the rule flags
// elsewhere is legal there, so no diagnostics survive.
func TestRecoverExemptInResilience(t *testing.T) {
	pkg, err := NewLoader(".").LoadDir(filepath.Join("testdata", "src", "nakedrecover"), "smart/internal/resilience")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Check(pkg); len(diags) != 0 {
		t.Fatalf("internal/resilience should be exempt from nakedrecover, got %d diagnostics: %v", len(diags), diags)
	}
}

// TestConcurrencyFixture loads the concurrency fixture under an
// internal/ import path, where the rule applies.
func TestConcurrencyFixture(t *testing.T) {
	checkFixture(t, "concurrency", "smart/internal/concurrency")
}

// TestConcurrencyExemptHomes loads the same fixture under the two
// sanctioned concurrency homes and outside internal/ entirely: no
// diagnostics may survive in any of them.
func TestConcurrencyExemptHomes(t *testing.T) {
	for _, path := range []string{"smart/internal/sim", "smart/internal/core", "smart/cmd/sweep"} {
		pkg, err := NewLoader(".").LoadDir(filepath.Join("testdata", "src", "concurrency"), path)
		if err != nil {
			t.Fatal(err)
		}
		if diags := Check(pkg); len(diags) != 0 {
			t.Fatalf("%s should be exempt from concurrency, got %d diagnostics: %v", path, len(diags), diags)
		}
	}
}

// TestShardSafeFixture runs the whole-program ownership rule over its
// fixture: entry-rooted traversal, ownership classification, the
// concurrency bans, interface dispatch, callbacks, the sink boundary
// and the allow hatch.
func TestShardSafeFixture(t *testing.T) {
	checkProgramFixture(t, "shardsafe", "fixture/shardsafe", func(p *Program) []Diagnostic {
		return p.CheckShardSafe()
	})
}

// TestDigestPureFixture runs the environmental-taint rule over its
// fixture: built-in and annotated sources, returns-tainted summaries,
// both sink forms, the undigested carve-out and the allow hatch.
func TestDigestPureFixture(t *testing.T) {
	checkProgramFixture(t, "digestpure", "fixture/digestpure", func(p *Program) []Diagnostic {
		return p.CheckDigestPure()
	})
}

// TestDirectiveHygieneFixture proves unknown, misplaced and floating
// directives are reported rather than silently ignored.
func TestDirectiveHygieneFixture(t *testing.T) {
	checkProgramFixture(t, "directive", "fixture/directive", func(p *Program) []Diagnostic {
		return nil
	})
}

// TestHotAllocFixture runs the escape-analysis rule over its fixture.
// The fixture compiles for real (the rule shells out to go build), so it
// is loaded under its true module import path and checked from the
// module root, mirroring a production smartlint invocation.
func TestHotAllocFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the fixture package; skipped in -short mode")
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "hotalloc"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(".").LoadDir(dir, "smart/internal/lint/testdata/src/hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{pkg})
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := prog.CheckHotAlloc(root)
	if err != nil {
		t.Fatal(err)
	}
	matchDiagnostics(t, dir, diags)
}

// TestInjectedShardViolation seeds a fresh package with a compute-phase
// global write and proves the shardsafe rule names the exact line.
func TestInjectedShardViolation(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

var hits int

//smartlint:shardentry
func Compute(w int) { hits++ }
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(".").LoadDir(dir, "injected/shard")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{pkg})
	diags := prog.CheckShardSafe()
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %v", diags)
	}
	if d := diags[0]; d.Rule != RuleShardSafe || d.Line != 6 {
		t.Fatalf("want a shardsafe diagnostic on line 6, got %s", d)
	}
}

// TestInjectedHotAllocViolation seeds an escaping allocation in a
// hotpath function at the module root and proves the hotalloc rule
// catches it through the full Run pipeline. The root placement is the
// regression point: the compiler prints root-package files as
// "./file.go", which must still match the root-relative body index.
func TestInjectedHotAllocViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the injected module; skipped in -short mode")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module injected\n\ngo 1.22\n",
		"hot.go": `package hot

//smartlint:hotpath
func Boxed() *int {
	return new(int)
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := Run(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %v", diags)
	}
	if d := diags[0]; d.Rule != RuleHotAlloc || d.Line != 5 {
		t.Fatalf("want a hotalloc diagnostic on line 5, got %s", d)
	}
}

// TestInjectedDigestViolation seeds a wall-clock value flowing into a
// digest sink and proves the digestpure rule catches the argument.
func TestInjectedDigestViolation(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

import "time"

//smartlint:digestsink
func Digest(vs []int64) {}

func Leak() { Digest([]int64{time.Now().UnixNano()}) }
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(".").LoadDir(dir, "injected/digest")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{pkg})
	diags := prog.CheckDigestPure()
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %v", diags)
	}
	if d := diags[0]; d.Rule != RuleDigestPure || d.Line != 8 {
		t.Fatalf("want a digestpure diagnostic on line 8, got %s", d)
	}
}

// TestInjectedViolation proves the end-to-end failure mode: a fresh
// package with a contract violation produces a file:line: rule:
// diagnostic (this is what makes cmd/smartlint exit nonzero).
func TestInjectedViolation(t *testing.T) {
	dir := t.TempDir()
	src := "package bad\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(".").LoadDir(dir, "injected/bad")
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(pkg)
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %v", diags)
	}
	d := diags[0]
	if d.Rule != RuleWallclock || d.Line != 5 {
		t.Fatalf("want a wallclock diagnostic on line 5, got %s", d)
	}
	if !regexp.MustCompile(`bad\.go:5: wallclock: `).MatchString(d.String()) {
		t.Fatalf("diagnostic %q does not render as file:line: rule: message", d.String())
	}
}

// TestSelfClean runs the analyzer over the repository's own simulation
// and command packages — the same invocation CI gates on. The tree
// must stay clean: any new finding is either a real determinism hazard
// to fix or needs a justified //smartlint:allow.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short mode")
	}
	diags, err := Run(filepath.Join("..", ".."), []string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("determinism contract violation: %s", d)
	}
}

// LoadDir parses and type-checks the non-test .go files of a single
// directory under the given import path. It exists for the analyzer's
// own fixture packages, which live under testdata/ where go list does
// not look; the import path is caller-chosen so tests can probe
// path-scoped exemptions (e.g. internal/obs and the wallclock rule).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(names)
	return l.checkFiles(importPath, dir, names)
}
