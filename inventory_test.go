package minvn_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// section returns the part of a markdown file from the heading that
// starts with `heading` up to the next heading of the same level.
func section(t *testing.T, file, heading string) string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "\n"+heading)
	if start < 0 {
		t.Fatalf("%s has no %q section", file, heading)
	}
	rest := text[start+1:]
	level := heading[:strings.Index(heading, " ")+1] // "## "
	if end := strings.Index(rest[len(heading):], "\n"+level); end >= 0 {
		rest = rest[:len(heading)+end]
	}
	return rest
}

// packageDirs walks cmd/ and internal/ for directories holding
// non-test Go files — the packages the inventories must name.
func packageDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				seen[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	for dir := range seen {
		out = append(out, dir)
	}
	sort.Strings(out)
	return out
}

// named reports whether doc names the package at dir: by its path
// ("cmd/vnmin", "internal/obs/health", or "obs/health" inside the
// internal/ tree), or — for a top-level internal package — as a tree
// entry with a trailing slash ("mc/"). A bare word ("the mc engine")
// does not count.
func named(doc, dir string) bool {
	short := strings.TrimPrefix(dir, "internal/")
	q := regexp.QuoteMeta(short)
	pattern := `(^|[^\w/])(internal/)?` + q + `([^\w]|$)`
	if !strings.Contains(short, "/") {
		pattern = `internal/` + q + `([^\w]|$)|(^|[^\w/])` + q + `/`
	}
	return regexp.MustCompile(`(?m)` + pattern).MatchString(doc)
}

// TestInventoriesNameEveryPackage gates documentation drift: README
// "Architecture" and DESIGN.md §3 must name every package directory
// under cmd/ and internal/, and must not name one that is gone. It is
// hermetic (a directory walk, no `go list`) and runs under plain
// `go test ./...`, so `make check` and CI need no extra step.
func TestInventoriesNameEveryPackage(t *testing.T) {
	dirs := packageDirs(t)
	if len(dirs) < 20 {
		t.Fatalf("found only %d package directories; run from the repository root", len(dirs))
	}
	exists := map[string]bool{}
	for _, d := range dirs {
		exists[d] = true
	}
	pathToken := regexp.MustCompile(`(?:cmd|internal)/[a-z0-9_]+(?:/[a-z0-9_]+)*`)
	treeEntry := regexp.MustCompile(`(?m)^  ([a-z0-9_]+(?:/[a-z0-9_]+)*)/\s`)
	for _, doc := range []struct{ file, heading string }{
		{"README.md", "## Architecture"},
		{"DESIGN.md", "## 3."},
	} {
		text := section(t, doc.file, doc.heading)
		for _, dir := range dirs {
			if !named(text, dir) {
				t.Errorf("%s %q does not name package %s", doc.file, doc.heading, dir)
			}
		}
		var mentioned []string
		mentioned = append(mentioned, pathToken.FindAllString(text, -1)...)
		for _, m := range treeEntry.FindAllStringSubmatch(text, -1) {
			mentioned = append(mentioned, "internal/"+m[1])
		}
		for _, m := range mentioned {
			if !exists[m] {
				t.Errorf("%s %q names %s, which is not a package directory", doc.file, doc.heading, m)
			}
		}
	}
}

// literals returns the first capture of every match of re in a Go
// source file — a source scan, so the gate needs no build of the
// package it inspects.
func literals(t *testing.T, file string, re *regexp.Regexp) []string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range re.FindAllSubmatch(src, -1) {
		out = append(out, string(m[1]))
	}
	if len(out) == 0 {
		t.Fatalf("%s: no match for %s; the scan is out of date", file, re)
	}
	return out
}

// routeMatches reports whether a concrete path (as a README names it)
// is served by a ServeMux pattern: segment by segment, with {wildcard}
// segments matching anything and a trailing-slash pattern matching its
// whole subtree.
func routeMatches(pattern, path string) bool {
	if strings.HasSuffix(pattern, "/") && strings.HasPrefix(path, pattern) {
		return true
	}
	ps, qs := strings.Split(pattern, "/"), strings.Split(path, "/")
	if len(ps) != len(qs) {
		return false
	}
	for i := range ps {
		if ps[i] != qs[i] && !strings.HasPrefix(ps[i], "{") {
			return false
		}
	}
	return true
}

// TestREADMENamesServeSurface gates the two hand-written tables that
// describe vnserved: README must name every route serve.Handler()
// registers and every flag cmd/vnserved registers, and must not name a
// route or a vnserved flag that is gone.
func TestREADMENamesServeSurface(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	routes := literals(t, "internal/serve/http.go",
		regexp.MustCompile(`mux\.HandleFunc\("(?:[A-Z]+ )?(/[^"]*)"`))
	for _, r := range routes {
		covered := strings.Contains(readme, r)
		for _, sub := range routes {
			// /debug/pprof/profile is documented by its subtree root.
			if sub != r && strings.HasSuffix(sub, "/") && strings.HasPrefix(r, sub) && strings.Contains(readme, sub) {
				covered = true
			}
		}
		if !covered {
			t.Errorf("README does not name route %s (internal/serve/http.go)", r)
		}
	}
	for _, named := range regexp.MustCompile(`/(?:v1|debug)/[A-Za-z0-9{}/_-]*|/metrics\b|/healthz\b`).FindAllString(readme, -1) {
		served := false
		for _, r := range routes {
			served = served || routeMatches(r, named)
		}
		if !served {
			t.Errorf("README names route %s, which serve.Handler() does not register", named)
		}
	}

	flags := literals(t, "cmd/vnserved/main.go",
		regexp.MustCompile(`fs\.(?:String|Int|Int64|Bool|Duration|Float64)\("([^"]+)"`))
	registered := map[string]bool{}
	serving := section(t, "README.md", "## Serving")
	for _, f := range flags {
		registered[f] = true
		if !regexp.MustCompile("`-" + regexp.QuoteMeta(f) + "[` ]").MatchString(serving) {
			t.Errorf("README \"## Serving\" does not name vnserved flag -%s", f)
		}
	}
	// Gone flags: anything README attributes to vnserved by name, and
	// every flag-shaped token of the Serving section.
	var named []string
	for _, m := range regexp.MustCompile("vnserved -([a-z][a-z-]*)").FindAllStringSubmatch(readme, -1) {
		named = append(named, m[1])
	}
	for _, m := range regexp.MustCompile("`-([a-z][a-z-]*)").FindAllStringSubmatch(serving, -1) {
		named = append(named, m[1])
	}
	for _, f := range named {
		if !registered[f] {
			t.Errorf("README names vnserved flag -%s, which cmd/vnserved does not register", f)
		}
	}
}
