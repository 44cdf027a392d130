package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenOpts are the capped quick options the golden files were rendered
// with: the -quick concurrency caps plus a 128-processor ceiling so the
// pinned cross-product stays test-sized.
func goldenOpts() Options {
	return Options{Quick: true, MaxProcs: 128, Runner: &runner.Pool{Workers: 8}}
}

// TestGoldenFigures pins the rendered output of Figures 2-7 byte-for-byte:
// the table-driven registry path must reproduce exactly what the
// hand-written per-figure builders emitted. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	for n := 2; n <= 7; n++ {
		name := fmt.Sprintf("figure%d", n)
		t.Run(name, func(t *testing.T) {
			fig, err := FigureN(context.Background(), goldenOpts(), n)
			if err != nil {
				t.Fatal(err)
			}
			// The CLI's per-figure output: the two table panels followed
			// by the Gflop/s chart.
			var buf bytes.Buffer
			if err := fig.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if err := fig.RenderChart(&buf, "gflops"); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, buf.Bytes())
		})
	}
}

// TestGoldenWorlds pins Table 1 and the Apex-MAP study — the
// microbenchmark worlds outside the figure path — byte-for-byte as JSON.
// Regenerate with
//
//	go test ./internal/experiments -run TestGoldenWorlds -update
func TestGoldenWorlds(t *testing.T) {
	cases := []struct {
		name  string
		write func(context.Context, *bytes.Buffer) error
	}{
		{"table1", func(ctx context.Context, buf *bytes.Buffer) error {
			rows, err := Table1(ctx, goldenOpts())
			if err != nil {
				return err
			}
			enc := json.NewEncoder(buf)
			enc.SetIndent("", "  ")
			return enc.Encode(rows)
		}},
		{"apexmap", func(ctx context.Context, buf *bytes.Buffer) error {
			results, err := ApexMapStudy(ctx, goldenOpts())
			if err != nil {
				return err
			}
			return runner.WriteJSON(buf, results)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.write(t.Context(), &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, buf.Bytes())
		})
	}
}

// checkGolden compares got with testdata/<name>.golden, or rewrites that
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output diverged from golden:\n--- got ---\n%s--- want ---\n%s",
			name, firstDiffContext(string(got), string(want)), string(want))
	}
}

// firstDiffContext trims the got-output to the region around the first
// differing line, keeping failure messages readable.
func firstDiffContext(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(g) {
				hi = len(g)
			}
			return strings.Join(g[lo:hi], "\n") + "\n"
		}
	}
	return got
}
