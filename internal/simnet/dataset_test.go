package simnet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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
	hot := tensor.NewMatrix(2, grid.Hours())
	hot.Data[30] = 1
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
		if i, ok := sameBits(hot.Data, want.Data); !ok {
			t.Fatalf("%s: HotDrive differs at %d", name, i)
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
	if kEnd+8*len(ds.Truth.HotDrive.Data) != len(good) {
		t.Fatalf("file is %d bytes, layout predicts %d", len(good), kEnd+8*len(ds.Truth.HotDrive.Data))
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
		{"future version", "version 6", mutate(4, 0x04)},
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
	for _, cut := range []int{2, 4, 30, datasetHeaderSize, datasetHeaderSize + 5, metaEnd, kStart, kStart + 13, kEnd, kEnd + 8, len(good) - 1} {
		cases = append(cases, rejectCase{"truncated", "", good[:cut]})
	}
	checkRejects(t, cases)
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
	k, h := make([]byte, 8*min(kLen, limit)), make([]byte, 8*min(hotLen, limit))
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

// FuzzLoadDataset feeds Load arbitrary bytes: it must reject them with an
// error, never panic or over-allocate, and whatever it accepts must
// re-Save to the identical bytes.
func FuzzLoadDataset(f *testing.F) {
	good := saveBytes(f, tinyDataset(f))
	f.Add(good)
	for _, cut := range []int{0, 4, datasetHeaderSize, len(good) / 2, len(good) - 1} {
		f.Add(good[:cut])
	}
	for _, off := range []int{5, 40, datasetHeaderSize + 3, len(good) / 2, len(good) - 3} {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x10
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := Load(bytes.NewReader(data))
		if err != nil {
			return
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
