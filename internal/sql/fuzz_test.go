package sql

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse holds the frontend to its contract on arbitrary text: Parse, and
// on success Catalog and Queries, return a result or an error and never
// panic. The corpus starts from every workload query and example script;
// inputs that once crashed live under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, glob := range []string{"../workload/queries/*.sql", "../../examples/sql/*.sql"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := script.Catalog(); err != nil {
			return
		}
		script.Queries("q")
	})
}
