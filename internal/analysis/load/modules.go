package load

import (
	"bufio"
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ReplacingModules returns, sorted, the directories under dir holding a
// nested module whose go.mod replaces dir's module with a local path
// that resolves to dir. Such a module (a separate benchmark harness,
// say) imports dir's internal packages as if it were part of it, so
// whole-program checks must count its files too. Directories the go
// command ignores (testdata, vendor, and names starting with . or _)
// are skipped.
func ReplacingModules(dir string) ([]string, error) {
	root, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := modulePath(root)
	if mod == "" {
		return nil, nil
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	err = filepath.WalkDir(abs, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != abs && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" || filepath.Dir(p) == abs {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if target, ok := replaceTarget(data, mod); ok && filepath.Join(filepath.Dir(p), target) == abs {
			out = append(out, filepath.Dir(p))
		}
		return nil
	})
	return out, err
}

// modulePath returns the path on go.mod's module line.
func modulePath(gomod []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(gomod))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// replaceTarget returns the local directory a single-line
// "replace mod => dir" directive in go.mod points mod at.
func replaceTarget(gomod []byte, mod string) (string, bool) {
	sc := bufio.NewScanner(bytes.NewReader(gomod))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "replace" && f[1] == mod && f[2] == "=>" {
			return f[3], true
		}
	}
	return "", false
}
