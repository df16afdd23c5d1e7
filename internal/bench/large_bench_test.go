package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// digestAllocators are the configurations the golden digest pins: the
// full preference allocator (core package), the Chaitin base
// (regalloc helpers), Chow & Hennessy's priority coloring, and the
// linear-scan driver adapter — between them every driver-side reader
// of the liveness solution. The golden's linearscan-fast line pins
// the serving fast path (linearscan.Run) as well.
var digestAllocators = []string{"chaitin", "pref-full", "priority", "linearscan"}

const digestGolden = "testdata/digest_large.txt"

// TestLargeWorkloadDigestGolden pins the complete allocation outcome
// (spill sets and register assignments) of the large workload against
// a committed golden digest. Any change to the allocation data
// structures — the dense interference graph, the slice-indexed
// selector state — must reproduce these digests bit for bit.
// Regenerate with UPDATE_DIGESTS=1 only alongside an intentional
// allocation-behavior change.
func TestLargeWorkloadDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload digest is slow")
	}
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	var lines []string
	for _, name := range digestAllocators {
		d, err := AllocationDigest(funcs, m, name)
		if err != nil {
			t.Fatalf("digest %s: %v", name, err)
		}
		lines = append(lines, name+" "+d)
	}
	fast, err := fastPathDigest(funcs, m)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, "linearscan-fast "+fast)
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("UPDATE_DIGESTS") != "" {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", digestGolden)
		return
	}

	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_DIGESTS=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("allocation digest changed:\ngot:\n%swant:\n%s", got, want)
	}
}

// fastPathDigest runs the serving fast path over funcs, in order, and
// hashes every function's FuncDigest record.
func fastPathDigest(funcs []*ir.Func, m *target.Machine) (string, error) {
	h := sha256.New()
	ws := linearscan.NewFastWorkspace()
	for _, f := range funcs {
		out, stats, err := linearscan.Run(f, m, linearscan.RunOptions{Workspace: ws})
		if err != nil {
			return "", fmt.Errorf("fast path %s: %w", f.Name, err)
		}
		fmt.Fprintln(h, FuncDigest(f.Name, stats, out))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// BenchmarkAllocateAllLarge times the parallel batch driver over the
// whole large workload, per allocator — the sequential benchmark's
// wall-clock divided by whatever the worker pool can extract.
func BenchmarkAllocateAllLarge(b *testing.B) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	for _, name := range digestAllocators {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := regalloc.AllocateAll(funcs, m, regalloc.BatchOptions{
					NewAllocator: func() regalloc.Allocator {
						alloc, _ := NewAllocator(name)
						return alloc
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocateLarge times sequential allocation of the whole
// large workload, per allocator — the headline number for the dense
// data-structure work. Run with -benchmem: the allocs/op column is
// what the workspace pooling is accountable to.
func BenchmarkAllocateLarge(b *testing.B) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	for _, name := range digestAllocators {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range funcs {
					alloc, err := NewAllocator(name)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := regalloc.Run(f, m, alloc, regalloc.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAllocateLargePooled is BenchmarkAllocateLarge with one
// workspace reused across every Run — the daemon's steady state, where
// cross-function buffer reuse comes on top of the per-round reuse the
// plain benchmark already gets.
func BenchmarkAllocateLargePooled(b *testing.B) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	for _, name := range digestAllocators {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			ws := regalloc.NewWorkspace()
			for i := 0; i < b.N; i++ {
				for _, f := range funcs {
					alloc, err := NewAllocator(name)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := regalloc.Run(f, m, alloc, regalloc.Options{Workspace: ws}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
