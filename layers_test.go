package ashs

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayersCoverInternal: layers.txt, the table bench.sh charges host CPU
// samples by, puts every package under internal/ in exactly one layer and
// names no package that does not exist.
func TestLayersCoverInternal(t *testing.T) {
	f, err := os.Open("layers.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layer := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pkg, name, ok := strings.Cut(line, "\t")
		if !ok || name == "" || strings.ContainsAny(name, " \t") {
			t.Errorf("layers.txt:%d: %q is not <package><tab><layer>", n, line)
			continue
		}
		if prev, dup := layer[pkg]; dup {
			t.Errorf("layers.txt:%d: %s is in layer %s and again in %s", n, pkg, prev, name)
		}
		layer[pkg] = name
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	pkgs := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgs["ashs/"+filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range pkgs {
		if _, ok := layer[pkg]; !ok {
			t.Errorf("%s is in no layer of layers.txt", pkg)
		}
	}
	for pkg := range layer {
		if !pkgs[pkg] {
			t.Errorf("layers.txt names %s, which is not a package under internal/", pkg)
		}
	}
}
