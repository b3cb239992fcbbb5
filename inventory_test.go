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
