package simnet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"

	"repro/internal/binenc"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// nanPayload is a quiet NaN with a non-default payload: a round trip
// that normalises NaNs would lose it.
var nanPayload = math.Float64frombits(0x7ff8_0000_dead_beef)

// tinyDataset is a hand-built 2-sector, 1-week, 1-KPI dataset: a valid
// file of a few kilobytes for the rejection tests and the fuzz corpus.
func tinyDataset(t testing.TB) *Dataset {
	grid, err := timegrid.New(timegrid.PaperStart, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := tensor.NewTensor3(2, grid.Hours(), 1)
	for i := range k.Data {
		k.Data[i] = float64(i) / 7
	}
	k.Data[3], k.Data[4] = math.NaN(), nanPayload
	hot := tensor.NewMask(2, grid.Hours())
	hot.Data[30], hot.Data[len(hot.Data)-1] = 1, 1
	return &Dataset{
		Grid:   grid,
		Config: DefaultConfig(),
		Topo: &Topology{
			Towers:  []Tower{{ID: 0, X: 1, Y: 2, City: 0, Sectors: []int{0, 1}}},
			Sectors: []Sector{{ID: 0, X: 1, Y: 2, Busyness: 1}, {ID: 1, X: 1, Y: 2, Profile: Emerging, Busyness: 0.9}},
			CityX:   []float64{1}, CityY: []float64{2},
		},
		K:     k,
		Truth: &Truth{HotDrive: hot, Episodes: []Episode{{Sector: 1, RampStart: 0, HotStart: 1, HotEnd: 3}}},
	}
}

func saveBytes(t testing.TB, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds.K.Data[7] = nanPayload
	ds.K.Data[8] = math.Copysign(0, -1)
	ds.Grid.SetHolidays([]time.Time{ds.Grid.Start.AddDate(0, 0, 9), ds.Grid.Start.AddDate(0, 0, 2)})
	path := filepath.Join(t.TempDir(), "net.hotd")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A non-seekable reader takes the read-into-memory path.
	fromStream, err := Load(bytes.NewBuffer(saveBytes(t, ds)))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Dataset{"LoadFile": fromFile, "Load": fromStream} {
		if got.K.N != ds.K.N || got.K.T != ds.K.T || got.K.F != ds.K.F {
			t.Fatalf("%s: K shape %dx%dx%d, want %dx%dx%d", name, got.K.N, got.K.T, got.K.F, ds.K.N, ds.K.T, ds.K.F)
		}
		if i, ok := sameBits(got.K.Data, ds.K.Data); !ok {
			t.Fatalf("%s: K differs at %d", name, i)
		}
		hot, want := got.Truth.HotDrive, ds.Truth.HotDrive
		if hot.Rows != want.Rows || hot.Cols != want.Cols {
			t.Fatalf("%s: HotDrive %dx%d, want %dx%d", name, hot.Rows, hot.Cols, want.Rows, want.Cols)
		}
		if !bytes.Equal(hot.Data, want.Data) {
			t.Fatalf("%s: HotDrive differs", name)
		}
		if !reflect.DeepEqual(got.Topo, ds.Topo) {
			t.Fatalf("%s: topology differs", name)
		}
		if !reflect.DeepEqual(got.Truth.Episodes, ds.Truth.Episodes) {
			t.Fatalf("%s: episodes differ", name)
		}
		if !reflect.DeepEqual(got.Config, ds.Config) {
			t.Fatalf("%s: config %+v, want %+v", name, got.Config, ds.Config)
		}
		if got.Grid.Hours() != ds.Grid.Hours() || !got.Grid.Start.Equal(ds.Grid.Start) {
			t.Fatalf("%s: grid mismatch", name)
		}
		for day := 0; day < ds.Grid.Days(); day++ {
			if got.Grid.IsHoliday(day) != ds.Grid.IsHoliday(day) {
				t.Fatalf("%s: day %d holiday %v, want %v", name, day, got.Grid.IsHoliday(day), ds.Grid.IsHoliday(day))
			}
		}
	}
}

// gobDataset has the name and fields of the version-1 wire type, which
// gob-encoded the whole dataset in one message.
type gobDataset struct {
	StartUnix int64
	Weeks     int
	Holidays  []int64
	Config    Config
	Topo      *Topology
	K         *tensor.Tensor3
	Truth     *Truth
}

type rejectCase struct {
	name, want string
	data       []byte
}

func checkRejects(t *testing.T, cases []rejectCase) {
	t.Helper()
	for _, tc := range cases {
		_, err := Load(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s (%d bytes): err = %v, want it to mention %q", tc.name, len(tc.data), err, tc.want)
		}
	}
}

func TestLoadRejectsDamagedFiles(t *testing.T) {
	ds := tinyDataset(t)
	good := saveBytes(t, ds)
	metaEnd := datasetHeaderSize + int(binary.LittleEndian.Uint64(good[8:]))
	kStart := (metaEnd + 7) &^ 7
	kEnd := kStart + 8*len(ds.K.Data)
	if kEnd+len(ds.Truth.HotDrive.Data) != len(good) {
		t.Fatalf("file is %d bytes, layout predicts %d", len(good), kEnd+len(ds.Truth.HotDrive.Data))
	}
	mutate := func(off int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= v
		return b
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(&gobDataset{Weeks: 1, Topo: ds.Topo, K: ds.K, Truth: ds.Truth}); err != nil {
		t.Fatal(err)
	}
	cases := []rejectCase{
		{"version 1 gob", "version 1", v1.Bytes()},
		{"bad magic", "bad magic", mutate(0, 0x04)},
		{"empty", "bad magic", nil},
		{"future version", "version 7", mutate(4, 0x04)},
		{"trailing byte", "1 trailing bytes", append(append([]byte(nil), good...), 0)},
		{"metadata bit flip", "metadata checksum", mutate(metaEnd-2, 0x04)},
		{"K bit flip", "K checksum", mutate(kStart+8*4+1, 0x04)},
		{"HotDrive bit flip", "HotDrive checksum", mutate(len(good)-1, 0x04)},
		{"stored sum bit flip", "K checksum", mutate(32, 0x04)},
	}
	if kStart > metaEnd {
		cases = append(cases, rejectCase{"padding", "nonzero padding", mutate(kStart-1, 1)})
	}
	// Every section boundary, and inside every section.
	for _, cut := range []int{2, 4, 30, datasetHeaderSize, datasetHeaderSize + 5, metaEnd, kStart, kStart + 13, kEnd, kEnd + 1, len(good) - 1} {
		cases = append(cases, rejectCase{"truncated", "", good[:cut]})
	}
	checkRejects(t, cases)
}

// withHotByte returns a copy of the saved file data whose HotDrive byte i
// (of hotLen) is v, under a recomputed HotDrive checksum, so only the
// value check can reject it.
func withHotByte(data []byte, hotLen, i int, v byte) []byte {
	b := append([]byte(nil), data...)
	hot := b[len(b)-hotLen:]
	hot[i] = v
	copy(b[48:64], binenc.AppendSum(nil, binenc.ChecksumChunked(hot)))
	return b
}

// asVersion2 rewrites a saved file in the version-2 layout: the version
// word 2 and HotDrive (hotLen bytes) as one float64 word per sector-hour
// under its own checksum.
func asVersion2(data []byte, hotLen int) []byte {
	b := append([]byte(nil), data[:len(data)-hotLen]...)
	words := make([]byte, 0, 8*hotLen)
	for _, v := range data[len(data)-hotLen:] {
		words = binenc.AppendF64(words, float64(v))
	}
	binary.LittleEndian.PutUint32(b[4:], 2)
	copy(b[48:64], binenc.AppendSum(nil, binenc.ChecksumChunked(words)))
	return append(b, words...)
}

// TestLoadRejectsHotDriveOutsideFlags: a HotDrive byte other than 0 or 1
// fails the load under a valid checksum, wherever it sits, and Save
// refuses to write one.
func TestLoadRejectsHotDriveOutsideFlags(t *testing.T) {
	ds := tinyDataset(t)
	good := saveBytes(t, ds)
	n := len(ds.Truth.HotDrive.Data)
	if _, err := Load(bytes.NewReader(withHotByte(good, n, 0, 1))); err != nil {
		t.Fatalf("a re-summed file of flags was rejected: %v", err)
	}
	var cases []rejectCase
	for _, c := range []struct {
		i int
		v byte
	}{{0, 2}, {30, 2}, {n / 2, 0x80}, {n - 1, 255}} {
		cases = append(cases, rejectCase{fmt.Sprintf("byte %d = %d", c.i, c.v),
			fmt.Sprintf("HotDrive byte %d is %d, want 0 or 1", c.i, c.v), withHotByte(good, n, c.i, c.v)})
	}
	checkRejects(t, cases)

	ds.Truth.HotDrive.Data[5] = 2
	if err := ds.Save(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "HotDrive byte 5 is 2") {
		t.Fatalf("Save of a HotDrive byte 2: err = %v", err)
	}
}

// TestLoadRejectsVersion2File: a file in the previous layout, HotDrive as
// float64 words, is refused by its version, through Load and LoadFile,
// with the advice to regenerate it.
func TestLoadRejectsVersion2File(t *testing.T) {
	ds := tinyDataset(t)
	v2 := asVersion2(saveBytes(t, ds), len(ds.Truth.HotDrive.Data))
	path := filepath.Join(t.TempDir(), "v2.hotd")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	_, fromFile := LoadFile(path)
	_, fromReader := Load(bytes.NewReader(v2))
	for _, err := range []error{fromFile, fromReader} {
		if err == nil || !strings.Contains(err.Error(), "dataset version 2;") || !strings.Contains(err.Error(), "regenerate it with hotgen") {
			t.Fatalf("version-2 file: err = %v, want it to name version 2 and hotgen", err)
		}
	}
}

// forge builds a file around meta with valid checksums. Each bulk section
// holds at most limit values, so a declared shape larger than that makes
// a truncated file.
func forge(t testing.TB, meta datasetMeta, limit int) []byte {
	t.Helper()
	var mb bytes.Buffer
	if err := gob.NewEncoder(&mb).Encode(&meta); err != nil {
		t.Fatal(err)
	}
	kLen, _ := elems(meta.N, meta.T, meta.F)
	hotLen, _ := elems(meta.HotRows, meta.HotCols)
	k, h := make([]byte, 8*min(kLen, limit)), make([]byte, min(hotLen, limit))
	b := append([]byte(datasetMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[4:], DatasetVersion)
	b = binenc.AppendU64(b, uint64(mb.Len()))
	b = binenc.AppendSum(b, binenc.ChecksumChunked(mb.Bytes()))
	b = binenc.AppendSum(b, binenc.ChecksumChunked(k))
	b = binenc.AppendSum(b, binenc.ChecksumChunked(h))
	b = binenc.AppendAlign8(append(b, mb.Bytes()...))
	return append(append(b, k...), h...)
}

func TestLoadRejectsInconsistentShapes(t *testing.T) {
	ds := tinyDataset(t)
	const week = timegrid.HoursPerWeek
	forged := func(edit func(m *datasetMeta)) []byte {
		m := datasetMeta{StartUnix: ds.Grid.Start.Unix(), Weeks: 1, Topo: ds.Topo,
			N: 2, T: week, F: 1, HotRows: 2, HotCols: week}
		edit(&m)
		return forge(t, m, 4*week)
	}
	if _, err := Load(bytes.NewReader(forged(func(*datasetMeta) {}))); err != nil {
		t.Fatalf("unedited forged file rejected: %v", err)
	}
	checkRejects(t, []rejectCase{
		{"HotDrive rows", "HotDrive is 3x168", forged(func(m *datasetMeta) { m.HotRows = 3 })},
		{"HotDrive cols", "HotDrive is 2x167", forged(func(m *datasetMeta) { m.HotCols = week - 1 })},
		{"topology", "topology has 1 sectors but K has N=2", forged(func(m *datasetMeta) {
			m.Topo = &Topology{Sectors: ds.Topo.Sectors[:1]}
		})},
		{"no topology", "no topology", forged(func(m *datasetMeta) { m.Topo = nil })},
		{"no sectors, huge grid", "no sectors (N=0)", forged(func(m *datasetMeta) {
			m.N, m.HotRows, m.Topo = 0, 0, &Topology{}
			m.Weeks, m.T, m.HotCols = 1<<40, week<<40, week<<40
		})},
		{"grid hours", "grid of 1 weeks does not match T=336", forged(func(m *datasetMeta) { m.T, m.HotCols = 2*week, 2*week })},
		{"empty grid", "grid of 0 weeks", forged(func(m *datasetMeta) { m.Weeks, m.T, m.HotCols = 0, 0, 0 })},
		{"not a Monday", "not a Monday", forged(func(m *datasetMeta) { m.StartUnix += 86400 })},
		{"negative F", "overflow", forged(func(m *datasetMeta) { m.F = -1 })},
		{"N*T*F overflow", "overflow", forged(func(m *datasetMeta) { m.F = math.MaxInt / week })},
		{"huge F", "truncated", forged(func(m *datasetMeta) { m.F = 1 << 40 })},
	})

	// A header declaring ~88 MB over a file of a few kilobytes must fail on
	// the size check, before the bulk sections are allocated.
	path := filepath.Join(t.TempDir(), "forged.hotd")
	if err := os.WriteFile(path, forged(func(m *datasetMeta) { m.F = 1 << 15 }), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadFile(path)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("forged size accepted: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("rejecting a forged header allocated %d bytes", grew)
	}

	// Save refuses to write what Load would reject.
	bad := tinyDataset(t)
	bad.Topo.Sectors = bad.Topo.Sectors[:1]
	if err := bad.Save(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "topology has 1 sectors") {
		t.Fatalf("Save of an inconsistent dataset: err = %v", err)
	}
}

// addDatasetSeeds seeds a dataset-decoder fuzz target with a saved tiny
// dataset, a HotDrive byte other than 0 or 1, a version-2 file, and
// truncations and bit flips of the good file.
func addDatasetSeeds(f *testing.F) {
	ds := tinyDataset(f)
	good := saveBytes(f, ds)
	hotLen := len(ds.Truth.HotDrive.Data)
	f.Add(good)
	f.Add(withHotByte(good, hotLen, 30, 2))
	f.Add(asVersion2(good, hotLen))
	for _, cut := range []int{0, 4, datasetHeaderSize, len(good) / 2, len(good) - 1} {
		f.Add(good[:cut])
	}
	for _, off := range []int{5, 40, datasetHeaderSize + 3, len(good) / 2, len(good) - 3} {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x10
		f.Add(mut)
	}
}

// FuzzLoadDataset feeds Load arbitrary bytes: it must reject them with an
// error, never panic or over-allocate; a file with a whole header of
// another version must be refused naming that version; and whatever it
// accepts must hold only 0/1 HotDrive bytes and re-Save to the identical
// bytes. FuzzLoadDatasetFile holds LoadFile to the same bytes; it is a
// target of its own because writing each input to a file would take most
// of this one's executions.
func FuzzLoadDataset(f *testing.F) {
	addDatasetSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := Load(bytes.NewReader(data))
		if len(data) >= datasetHeaderSize && string(data[:4]) == datasetMagic {
			if v := binary.LittleEndian.Uint32(data[4:]); v != DatasetVersion &&
				(err == nil || !strings.Contains(err.Error(), fmt.Sprintf("dataset version %d;", v))) {
				t.Fatalf("version-%d file: err = %v, want it to name the version", v, err)
			}
		}
		if err != nil {
			return
		}
		if err := checkFlags(ds.Truth.HotDrive.Data); err != nil {
			t.Fatalf("accepted a dataset whose %v", err)
		}
		var out bytes.Buffer
		if err := ds.Save(&out); err != nil {
			t.Fatalf("loaded dataset does not re-save: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-save differs: %d bytes in, %d out", len(data), out.Len())
		}
	})
}

// FuzzLoadDatasetFile is FuzzLoadDataset's mapped leg (fuzzLoadFile) on
// the same seeds.
func FuzzLoadDatasetFile(f *testing.F) {
	addDatasetSeeds(f)
	path := filepath.Join(f.TempDir(), "fuzz.hotd")
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := Load(bytes.NewReader(data))
		fuzzLoadFile(t, path, data, err)
	})
}

// fuzzLoadFile is FuzzLoadDatasetFile's check: data written to a file
// must load through LoadFile exactly when it loads through Load, with the
// same error for a non-empty file (an empty one is refused by the mapper),
// and an accepted file must re-save to its own bytes. The file at path is
// rewritten in place for each input: no dataset from an earlier input is
// read again, so its mapping may go stale.
func fuzzLoadFile(t *testing.T, path string, data []byte, loadErr error) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadFile(path)
	if (err == nil) != (loadErr == nil) || (err != nil && len(data) > 0 && err.Error() != loadErr.Error()) {
		t.Fatalf("LoadFile err = %v, Load err = %v", err, loadErr)
	}
	if err != nil {
		return
	}
	var out bytes.Buffer
	if err := ds.Save(&out); err != nil {
		t.Fatalf("mapped dataset does not re-save: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("mapped re-save differs: %d bytes in, %d out", len(data), out.Len())
	}
}

// loadFixture is a dataset whose K section spans many 64 KiB checksum
// chunks, so Load's chunk workers each take several.
func loadFixture(t *testing.T) *Dataset {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Sectors, cfg.Weeks, cfg.Seed = 20, 4, 6
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.K.Data[len(ds.K.Data)/2] = nanPayload
	return ds
}

// TestLoadBitIdenticalAcrossReaders: every way into Load — a file, a
// *bytes.Reader, a plain reader that is read into memory first, and a
// file or reader positioned after a prefix — yields the saved K and
// HotDrive bit for bit, at GOMAXPROCS 1 and N.
func TestLoadBitIdenticalAcrossReaders(t *testing.T) {
	ds := loadFixture(t)
	data := saveBytes(t, ds)
	prefix := []byte("not part of the dataset")
	dir := t.TempDir()
	plain, prefixed := filepath.Join(dir, "net.hotd"), filepath.Join(dir, "prefixed.hotd")
	if err := os.WriteFile(plain, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prefixed, append(append([]byte(nil), prefix...), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	file := func(path string, skip int) io.Reader {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if _, err := f.Seek(int64(skip), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		return f
	}
	reader := func(skip int) io.Reader {
		r := bytes.NewReader(append(append([]byte(nil), prefix[:skip]...), data...))
		r.Seek(int64(skip), io.SeekStart)
		return r
	}
	for _, procs := range []int{1, max(4, runtime.NumCPU())} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, c := range []struct {
			name string
			r    io.Reader
			end  int64 // offset a seekable reader is left at
		}{
			{"file", file(plain, 0), int64(len(data))},
			{"file after prefix", file(prefixed, len(prefix)), int64(len(prefix) + len(data))},
			{"bytes.Reader", reader(0), int64(len(data))},
			{"bytes.Reader after prefix", reader(len(prefix)), int64(len(prefix) + len(data))},
			{"plain reader", iotest.OneByteReader(bytes.NewReader(data)), 0},
		} {
			got, err := Load(c.r)
			if err != nil {
				t.Fatalf("%s at %d procs: %v", c.name, procs, err)
			}
			if i, ok := sameBits(got.K.Data, ds.K.Data); !ok {
				t.Fatalf("%s at %d procs: K differs at %d", c.name, procs, i)
			}
			if !bytes.Equal(got.Truth.HotDrive.Data, ds.Truth.HotDrive.Data) {
				t.Fatalf("%s at %d procs: HotDrive differs", c.name, procs)
			}
			if s, ok := c.r.(io.Seeker); ok {
				if at, _ := s.Seek(0, io.SeekCurrent); at != c.end {
					t.Fatalf("%s at %d procs: left at offset %d, want %d", c.name, procs, at, c.end)
				}
			}
		}
	}
}

// TestLoadReadErrorMidStream: a read error in the middle of K fails the
// load with a wrapped "reading dataset" error and no dataset.
func TestLoadReadErrorMidStream(t *testing.T) {
	data := saveBytes(t, loadFixture(t))
	kStart := (datasetHeaderSize + int64(binary.LittleEndian.Uint64(data[8:])) + 7) &^ 7
	injected := errors.New("injected read failure")
	r := io.MultiReader(bytes.NewReader(data[:kStart+5*(64<<10)+100]), iotest.ErrReader(injected))
	ds, err := Load(r)
	if ds != nil || !errors.Is(err, injected) || !strings.Contains(err.Error(), "reading dataset") {
		t.Fatalf("Load = %v, %v; want no dataset and a wrapped reading dataset error", ds, err)
	}
}

// saveFile saves d to path or fails the test.
func saveFile(t *testing.T, d *Dataset, path string) {
	t.Helper()
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestSaveFileReplacesLoadedFile: saving a different dataset over the
// path a loaded dataset maps replaces the file by rename, so the loaded
// dataset still reads its original bits, a fresh load reads the new
// ones, and no temporary file is left behind.
func TestSaveFileReplacesLoadedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.hotd")
	first := loadFixture(t)
	saveFile(t, first, path)
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := tinyDataset(t)
	saveFile(t, second, path)
	if i, ok := sameBits(loaded.K.Data, first.K.Data); !ok {
		t.Fatalf("loaded K changed at %d after its file was replaced", i)
	}
	if !bytes.Equal(loaded.Truth.HotDrive.Data, first.Truth.HotDrive.Data) {
		t.Fatal("loaded HotDrive changed after its file was replaced")
	}
	again, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(again.K.Data, second.K.Data); !ok {
		t.Fatalf("reloaded K differs from the saved replacement at %d", i)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two saves, want 1", len(entries))
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("saved file mode = %v, %v; want 0644", fi.Mode(), err)
	}
	// A failed save leaves the file and the directory as they were.
	bad := tinyDataset(t)
	bad.Topo.Sectors = bad.Topo.Sectors[:1]
	if err := bad.SaveFile(path); err == nil {
		t.Fatal("SaveFile of an inconsistent dataset succeeded")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed save left %d entries, want 1", len(entries))
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("file unreadable after a failed save: %v", err)
	}
}

// mapsMention reports whether /proc/self/maps names path.
func mapsMention(t *testing.T, path string) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return bytes.Contains(maps, []byte(path))
}

// TestLoadFileMapsKUntilCollected: LoadFile serves K from a read-only
// mapping of the file (a write faults), a Clone of it is writable and
// equal, and once the dataset is dropped and collected the mapping is
// gone from /proc/self/maps.
func TestLoadFileMapsKUntilCollected(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("datasets are mapped on linux only")
	}
	path := filepath.Join(t.TempDir(), "net.hotd")
	want := loadFixture(t)
	saveFile(t, want, path)
	func() {
		ds, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !mapsMention(t, path) {
			t.Fatal("loaded dataset's file is not mapped")
		}
		c := ds.K.Clone()
		if i, ok := sameBits(c.Data, want.K.Data); !ok {
			t.Fatalf("Clone of the mapped K differs at %d", i)
		}
		c.Set(0, 0, 0, 42)
		if c.At(0, 0, 0) != 42 || math.Float64bits(ds.K.At(0, 0, 0)) != math.Float64bits(want.K.At(0, 0, 0)) {
			t.Fatal("a write to the Clone reached the mapped K")
		}
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a write to the mapped K did not fault")
				}
			}()
			ds.K.Data[0] = 1
		}()
		runtime.KeepAlive(ds)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for mapsMention(t, path) {
		if time.Now().After(deadline) {
			t.Fatal("the dropped dataset's file is still mapped")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGenerateKOffHeap: Generate allocates K in an anonymous mapping,
// off the Go heap. The live heap grows by under a quarter of K's bytes
// across Generate, K.Data's address range lies in one anonymous mapping,
// and once the dataset is dropped the range is unmapped within a bounded
// number of collections.
func TestGenerateKOffHeap(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("K is mapped on linux only")
	}
	cfg := DefaultConfig()
	cfg.Sectors, cfg.Weeks = 60, 8
	var lo, hi uint64
	func() {
		before := liveHeapObjectBytes()
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kBytes := int64(8 * len(ds.K.Data))
		grew := liveHeapObjectBytes() - before
		t.Logf("live heap grew by %d bytes across Generate; K is %d bytes", grew, kBytes)
		if grew >= kBytes/4 {
			t.Errorf("live heap grew by %d bytes across Generate, want < %d", grew, kBytes/4)
		}
		if got := ds.KBacking(); got != "anonymous" {
			t.Errorf("KBacking = %q, want anonymous", got)
		}
		lo = uint64(uintptr(unsafe.Pointer(unsafe.SliceData(ds.K.Data))))
		hi = lo + uint64(kBytes)
		if !anonMapping(t, lo, hi) {
			t.Errorf("K.Data [%#x, %#x) is not inside one anonymous mapping", lo, hi)
		}
		runtime.KeepAlive(ds)
	}()
	for i := 0; anonMapping(t, lo, hi); i++ {
		if i == 100 {
			t.Fatal("the dropped dataset's K is still mapped after 100 collections")
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // finalizers run on their own goroutine
	}
}

// liveHeapObjectBytes collects and returns the bytes of live heap
// objects.
func liveHeapObjectBytes() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// anonMapping reports whether one anonymous mapping in /proc/self/maps
// covers [lo, hi).
func anonMapping(t *testing.T, lo, hi uint64) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		// start-end perms offset dev inode [path]
		f := strings.Fields(line)
		if len(f) != 5 || f[4] != "0" {
			continue
		}
		start, end, _ := strings.Cut(f[0], "-")
		s, err1 := strconv.ParseUint(start, 16, 64)
		e, err2 := strconv.ParseUint(end, 16, 64)
		if err1 == nil && err2 == nil && s <= lo && hi <= e {
			return true
		}
	}
	return false
}

// BenchmarkLoadFile times loading a 150-sector, 18-week dataset file
// (about 64 MB): the chunk-parallel read and checksum of K and HotDrive
// plus the metadata decode.
func BenchmarkLoadFile(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Sectors, cfg.Weeks = 150, 18
	ds, err := Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "net.hotd")
	if err := ds.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8*len(ds.K.Data) + len(ds.Truth.HotDrive.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
