package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// inventoryRoots are the trees whose package directories DESIGN.md §3
// must account for.
var inventoryRoots = []string{"internal", "cmd", "examples"}

// TestDesignInventory keeps DESIGN.md §3 honest: every directory under
// internal/, cmd/ and examples/ holding non-test Go files has a row,
// and every path a row names exists. A row names its paths as code
// spans in its first cell; a brace group such as
// `internal/sim/{lammps,gtcp,gromacs}` names one path per member.
func TestDesignInventory(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := inventoryPaths(string(doc))
	if len(rows) == 0 {
		t.Fatal("DESIGN.md has no §3 table naming package paths")
	}
	pkgs, err := packageDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range pkgs {
		if !rows[dir] {
			t.Errorf("DESIGN.md §3 has no row for package directory %s", dir)
		}
	}
	for path := range rows {
		if info, err := os.Stat(filepath.FromSlash(path)); err != nil || !info.IsDir() {
			t.Errorf("DESIGN.md §3 names %s, which is not a directory", path)
		}
	}
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// inventoryPaths returns the paths named by the first cell of each row
// of the §3 table.
func inventoryPaths(doc string) map[string]bool {
	paths := map[string]bool{}
	start := strings.Index(doc, "\n## 3. ")
	if start < 0 {
		return paths
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[1], -1) {
			for _, p := range expandBraces(m[1]) {
				paths[p] = true
			}
		}
	}
	return paths
}

// expandBraces expands one `prefix/{a,b}` group; a path without braces
// is returned as is.
func expandBraces(path string) []string {
	lo, hi := strings.Index(path, "{"), strings.LastIndex(path, "}")
	if lo < 0 || hi < lo {
		return []string{path}
	}
	var out []string
	for _, member := range strings.Split(path[lo+1:hi], ",") {
		out = append(out, path[:lo]+strings.TrimSpace(member)+path[hi+1:])
	}
	return out
}

// packageDirs lists, slash-separated and sorted, every directory under
// the inventory roots that holds a non-test Go file.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	for _, top := range inventoryRoots {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			name := d.Name()
			if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				rel, err := filepath.Rel(root, filepath.Dir(path))
				if err != nil {
					return err
				}
				seen[filepath.ToSlash(rel)] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(seen))
	for dir := range seen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}
