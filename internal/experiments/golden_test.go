package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current output")

// TestPaperGolden pins every simulated number the paper reproduction
// prints: RunAll rendered as the upkit-bench command prints it, byte
// for byte. A model change shows up here as a diff that its commit
// explains; regenerate with go test -run TestPaperGolden -update.
func TestPaperGolden(t *testing.T) {
	tables, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, tab := range tables {
		out.WriteString(tab.Render())
		out.WriteByte('\n')
	}
	path := filepath.Join("testdata", "paper.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(exp)) {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, e)
		}
	}
}
