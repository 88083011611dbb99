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
	"runtime"
	"time"
	"unsafe"

	"repro/internal/binenc"
	"repro/internal/mmapfile"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// DatasetVersion is the dataset file format Save writes and Load reads.
// Load rejects every other version; bump it on any layout change.
//
// Version 3 layout (integers little-endian):
//
//	offset  size       field
//	0       4          magic "HOTD"
//	4       4          DatasetVersion
//	8       8          metadata length m
//	16      16         checksum of the metadata block
//	32      16         checksum of the K section
//	48      16         checksum of the HotDrive section
//	64      m          metadata: gob-encoded datasetMeta
//	64+m    0..7       zero padding to a multiple of 8
//	        8·N·T·F    K.Data, raw IEEE-754 words
//	        N·T        Truth.HotDrive.Data, one byte per sector-hour, 0 or 1
//
// Checksums are binenc.ChecksumChunked over each section's stored bytes.
// Version 2 stored HotDrive as 8·N·T IEEE-754 words; version 1 was a
// single gob stream.
const DatasetVersion = 3

const (
	datasetMagic      = "HOTD"
	datasetHeaderSize = 64
	// v1TypeName is the gob type name at the start of every version-1
	// file, which is how Load recognises one.
	v1TypeName = "gobDataset"
)

// datasetMeta is the gob-encoded metadata block: everything except the
// two bulk sections, plus their shapes. The grid is reduced to its
// defining parameters so unexported state round-trips cleanly.
type datasetMeta struct {
	StartUnix        int64
	Weeks            int
	Holidays         []int64 // Unix times of the holidays inside the grid
	Config           Config
	Topo             *Topology
	Episodes         []Episode
	N, T, F          int
	HotRows, HotCols int
}

// check reports shapes that disagree with each other. A dataset needs a
// sector: with none, both bulk sections are empty whatever the grid, so
// the file size would no longer bound the grid it declares.
func (m *datasetMeta) check() error {
	switch {
	case m.Topo == nil:
		return errors.New("no topology")
	case m.N <= 0:
		return fmt.Errorf("no sectors (N=%d)", m.N)
	case len(m.Topo.Sectors) != m.N:
		return fmt.Errorf("topology has %d sectors but K has N=%d", len(m.Topo.Sectors), m.N)
	case m.HotRows != m.N || m.HotCols != m.T:
		return fmt.Errorf("HotDrive is %dx%d but K is %dx%d sectors x hours", m.HotRows, m.HotCols, m.N, m.T)
	case m.Weeks <= 0 || m.T%timegrid.HoursPerWeek != 0 || m.T/timegrid.HoursPerWeek != m.Weeks:
		return fmt.Errorf("grid of %d weeks does not match T=%d hours", m.Weeks, m.T)
	}
	return nil
}

// Save writes the dataset to w in the DatasetVersion format.
func (d *Dataset) Save(w io.Writer) error {
	hot := d.Truth.HotDrive
	meta := datasetMeta{
		StartUnix: d.Grid.Start.Unix(),
		Weeks:     d.Grid.Weeks,
		Config:    d.Config,
		Topo:      d.Topo,
		Episodes:  d.Truth.Episodes,
		N:         d.K.N,
		T:         d.K.T,
		F:         d.K.F,
		HotRows:   hot.Rows,
		HotCols:   hot.Cols,
	}
	for day := 0; day < d.Grid.Days(); day++ {
		if d.Grid.IsHoliday(day) {
			meta.Holidays = append(meta.Holidays, d.Grid.Start.AddDate(0, 0, day).Unix())
		}
	}
	if err := meta.check(); err != nil {
		return fmt.Errorf("simnet: saving dataset: %w", err)
	}
	if err := checkFlags(hot.Data); err != nil {
		return fmt.Errorf("simnet: saving dataset: %w", err)
	}
	var mb bytes.Buffer
	if err := gob.NewEncoder(&mb).Encode(&meta); err != nil {
		return fmt.Errorf("simnet: encoding dataset metadata: %w", err)
	}
	k, h := leBytes(d.K.Contiguous()), hot.Data
	head := make([]byte, 0, datasetHeaderSize+mb.Len()+7)
	head = append(head, datasetMagic...)
	head = binenc.AppendU32(head, DatasetVersion)
	head = binenc.AppendU64(head, uint64(mb.Len()))
	head = binenc.AppendSum(head, binenc.ChecksumChunked(mb.Bytes()))
	head = binenc.AppendSum(head, binenc.ChecksumChunked(k))
	head = binenc.AppendSum(head, binenc.ChecksumChunked(h))
	head = binenc.AppendAlign8(append(head, mb.Bytes()...))
	for _, b := range [][]byte{head, k, h} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("simnet: writing dataset: %w", err)
		}
	}
	runtime.KeepAlive(d.K) // k may alias a mapping that K's finalizer closes
	return nil
}

// Load reads a dataset previously written with Save. The input is
// untrusted: every checksum is verified, and the sizes the header
// declares are checked against the bytes r holds. Load reads r to its end
// into one buffer and decodes it as LoadFile decodes a mapped file; K
// aliases the buffer.
func Load(r io.Reader) (*Dataset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("simnet: reading dataset: %w", err)
	}
	ds, _, err := decodeDataset(b)
	if err != nil {
		return nil, fmt.Errorf("simnet: loading dataset: %w", err)
	}
	return ds, nil
}

// decodeDataset decodes a DatasetVersion file held in b, verifying every
// section's checksum over b. K aliases b when the host is little-endian
// and K's bytes are 8-aligned, and aliased reports it; HotDrive is always
// copied.
func decodeDataset(b []byte) (ds *Dataset, aliased bool, err error) {
	head := b[:min(len(b), datasetHeaderSize)]
	if !bytes.HasPrefix(head, []byte(datasetMagic)) {
		if bytes.Contains(head, []byte(v1TypeName)) {
			return nil, false, fmt.Errorf("file is dataset version 1 (gob); this build reads version %d only: regenerate it with hotgen", DatasetVersion)
		}
		return nil, false, fmt.Errorf("bad magic %q, want %q", head[:min(len(head), len(datasetMagic))], datasetMagic)
	}
	if len(head) < datasetHeaderSize {
		return nil, false, fmt.Errorf("truncated header: %d of %d bytes", len(head), datasetHeaderSize)
	}
	hr := binenc.NewReader(head[len(datasetMagic):])
	if v := hr.U32(); v != DatasetVersion {
		return nil, false, fmt.Errorf("file is dataset version %d; this build reads version %d only: regenerate it with hotgen", v, DatasetVersion)
	}
	metaLen := hr.U64()
	sumMeta, sumK, sumHot := hr.ReadSum(), hr.ReadSum(), hr.ReadSum()

	rest := b[datasetHeaderSize:]
	if metaLen > uint64(len(rest)) {
		return nil, false, fmt.Errorf("truncated: metadata of %d bytes, %d left", metaLen, len(rest))
	}
	pad := int(-(datasetHeaderSize + metaLen) & 7)
	if int(metaLen)+pad > len(rest) {
		return nil, false, fmt.Errorf("truncated: metadata of %d bytes and %d of padding, %d left", metaLen, pad, len(rest))
	}
	mb, padding := rest[:metaLen], rest[metaLen:int(metaLen)+pad]
	rest = rest[int(metaLen)+pad:]
	if got := binenc.ChecksumChunked(mb); got != sumMeta {
		return nil, false, fmt.Errorf("metadata checksum mismatch: stored %v, computed %v", sumMeta, got)
	}
	if !bytes.Equal(padding, make([]byte, pad)) {
		return nil, false, errors.New("nonzero padding after metadata")
	}
	var meta datasetMeta
	br := bytes.NewReader(mb)
	if err := gob.NewDecoder(br).Decode(&meta); err != nil {
		return nil, false, fmt.Errorf("decoding metadata: %w", err)
	}
	if br.Len() != 0 {
		return nil, false, fmt.Errorf("%d bytes after the metadata gob", br.Len())
	}
	if err := meta.check(); err != nil {
		return nil, false, err
	}
	grid, err := timegrid.New(time.Unix(meta.StartUnix, 0).UTC(), meta.Weeks)
	if err != nil {
		return nil, false, fmt.Errorf("reconstructing grid: %w", err)
	}
	holidays := make([]time.Time, 0, len(meta.Holidays))
	for _, h := range meta.Holidays {
		holidays = append(holidays, time.Unix(h, 0).UTC())
	}
	grid.SetHolidays(holidays)

	// Size both bulk sections against the bytes left.
	kLen, okK := elems(meta.N, meta.T, meta.F)
	hotLen, okHot := elems(meta.HotRows, meta.HotCols)
	if !okK || !okHot {
		return nil, false, fmt.Errorf("section shapes %dx%dx%d and %dx%d overflow", meta.N, meta.T, meta.F, meta.HotRows, meta.HotCols)
	}
	left := len(rest)
	if kLen > left/8 || hotLen > left-8*kLen {
		return nil, false, fmt.Errorf("truncated: sections need %d+%d values, %d bytes left", kLen, hotLen, left)
	}
	if extra := left - 8*kLen - hotLen; extra != 0 {
		return nil, false, fmt.Errorf("%d trailing bytes", extra)
	}

	kb, hb := rest[:8*kLen], rest[8*kLen:]
	if got := binenc.ChecksumChunked(kb); got != sumK {
		return nil, false, fmt.Errorf("K checksum mismatch: stored %v, computed %v", sumK, got)
	}
	if got := binenc.ChecksumChunked(hb); got != sumHot {
		return nil, false, fmt.Errorf("HotDrive checksum mismatch: stored %v, computed %v", sumHot, got)
	}
	if err := checkFlags(hb); err != nil {
		return nil, false, err
	}
	k := &tensor.Tensor3{N: meta.N, T: meta.T, F: meta.F}
	k.Data, aliased = f64sOf(kb)
	hot := &tensor.Mask{Rows: meta.HotRows, Cols: meta.HotCols, Data: bytes.Clone(hb)}
	return &Dataset{
		Grid:   grid,
		Config: meta.Config,
		Topo:   meta.Topo,
		K:      k,
		Truth:  &Truth{HotDrive: hot, Episodes: meta.Episodes},
	}, aliased, nil
}

// elems returns the product of dims, or false when a dimension is
// negative or the section's byte size (8 per element) overflows an int.
func elems(dims ...int) (int, bool) {
	n := 1
	for _, d := range dims {
		if d < 0 || (d != 0 && n > math.MaxInt/8/d) {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// checkFlags reports the first HotDrive byte that is neither 0 nor 1.
func checkFlags(hot []uint8) error {
	for i, v := range hot {
		if v > 1 {
			return fmt.Errorf("HotDrive byte %d is %d, want 0 or 1", i, v)
		}
	}
	return nil
}

// f64Bytes aliases vs's memory as bytes.
func f64Bytes(vs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*8)
}

// wordsOf aliases b's memory as native float64 words. b must be
// 8-aligned.
func wordsOf(b []byte) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// f64sOf returns the little-endian float64 words in b: an alias of b's
// memory (aliased true) on a little-endian host when b is 8-aligned, a
// converted copy otherwise.
func f64sOf(b []byte) (vs []float64, aliased bool) {
	if binenc.NativeLittle() && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		return wordsOf(b), true
	}
	vs = make([]float64, len(b)/8)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vs, false
}

// leBytes returns vs as little-endian bytes: an alias of vs's memory on a
// little-endian host, a converted copy otherwise.
func leBytes(vs []float64) []byte {
	if binenc.NativeLittle() {
		return f64Bytes(vs)
	}
	b := make([]byte, 0, len(vs)*8)
	for _, v := range vs {
		b = binenc.AppendF64(b, v)
	}
	return b
}

// SaveFile writes the dataset to path atomically: to a temporary file in
// the same directory, fsynced, then renamed over path. A process that has
// path loaded (LoadFile maps it) keeps reading the old file's bytes; the
// file is replaced, never rewritten in place. On error path is untouched
// and the temporary file removed.
func (d *Dataset) SaveFile(path string) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadFile reads a dataset from path. It maps the file read-only
// (internal/mmapfile) and verifies every section checksum over the
// mapped bytes. K then serves straight from the mapping, off the Go heap;
// the mapping closes when K is garbage collected, so a slice taken from
// K is valid while K is reachable. K's storage is read-only, so write to
// a Clone. HotDrive is copied to the heap.
func LoadFile(path string) (*Dataset, error) {
	f, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	ds, aliased, err := decodeDataset(f.Data())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("simnet: loading dataset: %w", err)
	}
	if !aliased {
		f.Close() // K is a converted copy: nothing aliases the file
		return ds, nil
	}
	ds.holdK(f, "file")
	return ds, nil
}

// holdK makes f, which K's storage aliases, live as long as K: when f is
// a mapping, it closes once K is garbage collected, and KBacking reports
// backing. A heap-backed f needs no release. LoadFile and Generate share
// this one release of K.
func (d *Dataset) holdK(f *mmapfile.File, backing string) {
	if !f.Mapped() {
		return
	}
	d.backing = backing
	runtime.SetFinalizer(d.K, func(*tensor.Tensor3) { f.Close() })
}

// SelectSectors restricts the dataset in place to the listed sectors (the
// missing-value filtering step) and returns d. keep must be strictly
// ascending, as score.FilterSectors returns it. K records the survivors
// as a row index and moves no data (see tensor.Tensor3.SelectSectors), so
// it works on a mapped K; Truth.HotDrive is compacted. The caller's
// dataset is the restricted one afterwards: read anything needed from the
// unfiltered dataset (its sector count, say) before the call. Sector IDs
// in the new topology are re-numbered to be dense; tower membership is
// preserved for the survivors. Truth episodes are re-indexed accordingly.
func (d *Dataset) SelectSectors(keep []int) *Dataset {
	d.K.SelectSectors(keep)
	d.Truth.HotDrive.SelectRows(keep)
	remap := make(map[int]int, len(keep))
	for newID, oldID := range keep {
		remap[oldID] = newID
	}
	topo := &Topology{CityX: d.Topo.CityX, CityY: d.Topo.CityY}
	towerRemap := map[int]int{}
	for _, oldID := range keep {
		old := d.Topo.Sectors[oldID]
		newTower, ok := towerRemap[old.Tower]
		if !ok {
			oldTower := d.Topo.Towers[old.Tower]
			newTower = len(topo.Towers)
			towerRemap[old.Tower] = newTower
			topo.Towers = append(topo.Towers, Tower{
				ID: newTower, X: oldTower.X, Y: oldTower.Y,
				City: oldTower.City, Class: oldTower.Class,
			})
		}
		sec := old
		sec.ID = remap[oldID]
		sec.Tower = newTower
		topo.Sectors = append(topo.Sectors, sec)
		topo.Towers[newTower].Sectors = append(topo.Towers[newTower].Sectors, sec.ID)
	}
	d.Topo = topo
	episodes := d.Truth.Episodes[:0]
	for _, ep := range d.Truth.Episodes {
		if newID, ok := remap[ep.Sector]; ok {
			ep.Sector = newID
			episodes = append(episodes, ep)
		}
	}
	d.Truth.Episodes = episodes
	return d
}
