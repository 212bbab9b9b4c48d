package dcstream

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignPackageTable: DESIGN.md §2 is the one package table, so its
// Package column names every Go package under internal/ and nothing else.
func TestDesignPackageTable(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n## 2.")
	if !ok {
		t.Fatal("DESIGN.md has no section 2")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	pkg := regexp.MustCompile("`(internal/[^`]+)`")
	var listed []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		for _, m := range pkg.FindAllStringSubmatch(cells[2], -1) {
			listed = append(listed, m[1])
		}
	}

	var dirs []string
	err = filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			dirs = append(dirs, filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(listed)
	slices.Sort(dirs)
	dirs = slices.Compact(dirs)
	if !slices.Equal(listed, dirs) {
		t.Fatalf("DESIGN.md §2 lists\n%v\nbut internal/ holds\n%v", listed, dirs)
	}
}
