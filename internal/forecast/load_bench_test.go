package forecast

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// loadBenchArtifact fits one full-size forest (tens of thousands of
// nodes) and saves it once, shared by the load benchmarks below.
var loadBenchArtifact struct {
	once sync.Once
	path string
	data []byte
	err  error
}

func loadBenchSetup(b *testing.B) (string, []byte) {
	b.Helper()
	s := &loadBenchArtifact
	s.once.Do(func() {
		c := testContext(b, 1200, 8, 71)
		c.ForestTrees = 30
		tr, err := NewRFR().Fit(c, BeHot, 30, 2, 5)
		if err != nil {
			s.err = err
			return
		}
		dir, err := os.MkdirTemp("", "loadbench")
		if err != nil {
			s.err = err
			return
		}
		s.path = filepath.Join(dir, "forest.hotm")
		if err := SaveModel(s.path, tr); err != nil {
			s.err = err
			return
		}
		s.data, s.err = os.ReadFile(s.path)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.path, s.data
}

// BenchmarkLoadModelMmap: the trusted load path — mmap the file and
// alias the flat sections in place. Cost is the envelope header, shape
// checks and the O(code columns x cuts) derived-structure rebuild —
// independent of node count. The gap to the checked
// decode below is the per-node validation the mmap path skips.
func BenchmarkLoadModelMmap(b *testing.B) {
	path, _ := loadBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadModelFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyEnvelope: the checksum gate alone — the streaming pass
// the mmap load runs before aliasing sections. Its cost bounds what
// integrity adds to BenchmarkLoadModelMmap.
func BenchmarkVerifyEnvelope(b *testing.B) {
	_, data := loadBenchSetup(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyEnvelope(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeModelChecked: the untrusted decode path — same bytes,
// but every node record is validated (O(nodes)) before the unchecked
// descent kernels may run over it.
func BenchmarkDecodeModelChecked(b *testing.B) {
	_, data := loadBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeModel(data); err != nil {
			b.Fatal(err)
		}
	}
}
