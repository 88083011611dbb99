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
	"time"
	"unsafe"

	"repro/internal/binenc"
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
	k, h := leBytes(d.K.Data), hot.Data
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
	return nil
}

// Load reads a dataset previously written with Save. The input is
// untrusted: every checksum is verified, and the sizes the header
// declares are checked against the bytes r holds before the bulk
// sections are allocated. A reader that can seek and read at offsets (a
// file, *bytes.Reader) is read in place from its current offset and left
// at its end; any other reader is read into memory first. The bulk
// sections are read and verified chunk by chunk on all cores
// (binenc.ReadChecksummed).
func Load(r io.Reader) (*Dataset, error) {
	ra, size, err := sized(r)
	if err != nil {
		return nil, fmt.Errorf("simnet: reading dataset: %w", err)
	}
	ds, err := decodeDataset(ra, size)
	if err != nil {
		return nil, fmt.Errorf("simnet: loading dataset: %w", err)
	}
	return ds, nil
}

// sized returns r's remaining bytes as a ReaderAt starting at offset 0,
// and their count.
func sized(r io.Reader) (io.ReaderAt, int64, error) {
	if s, ok := r.(interface {
		io.ReaderAt
		io.Seeker
	}); ok {
		if cur, err := s.Seek(0, io.SeekCurrent); err == nil {
			end, err := s.Seek(0, io.SeekEnd)
			if err != nil {
				return nil, 0, err
			}
			return io.NewSectionReader(s, cur, end-cur), end - cur, nil
		}
	}
	b, err := io.ReadAll(r)
	return bytes.NewReader(b), int64(len(b)), err
}

// decodeDataset reads a DatasetVersion file of exactly size bytes from ra.
func decodeDataset(ra io.ReaderAt, size int64) (*Dataset, error) {
	r := io.NewSectionReader(ra, 0, size)
	var head [datasetHeaderSize]byte
	n, err := io.ReadFull(r, head[:])
	if !bytes.HasPrefix(head[:n], []byte(datasetMagic)) {
		if bytes.Contains(head[:n], []byte(v1TypeName)) {
			return nil, fmt.Errorf("file is dataset version 1 (gob); this build reads version %d only: regenerate it with hotgen", DatasetVersion)
		}
		return nil, fmt.Errorf("bad magic %q, want %q", head[:min(n, len(datasetMagic))], datasetMagic)
	}
	if err != nil {
		return nil, fmt.Errorf("truncated header: %w", err)
	}
	hr := binenc.NewReader(head[len(datasetMagic):])
	if v := hr.U32(); v != DatasetVersion {
		return nil, fmt.Errorf("file is dataset version %d; this build reads version %d only: regenerate it with hotgen", v, DatasetVersion)
	}
	metaLen := hr.U64()
	sumMeta, sumK, sumHot := hr.ReadSum(), hr.ReadSum(), hr.ReadSum()

	left := size - datasetHeaderSize
	if metaLen > uint64(left) {
		return nil, fmt.Errorf("truncated: metadata of %d bytes, %d left", metaLen, left)
	}
	pad := int64(-(datasetHeaderSize + metaLen) & 7)
	mb := make([]byte, int64(metaLen)+pad)
	if _, err := io.ReadFull(r, mb); err != nil {
		return nil, fmt.Errorf("reading metadata: %w", err)
	}
	left -= int64(len(mb))
	mb, padding := mb[:metaLen], mb[metaLen:]
	if got := binenc.ChecksumChunked(mb); got != sumMeta {
		return nil, fmt.Errorf("metadata checksum mismatch: stored %v, computed %v", sumMeta, got)
	}
	if !bytes.Equal(padding, make([]byte, pad)) {
		return nil, errors.New("nonzero padding after metadata")
	}
	var meta datasetMeta
	br := bytes.NewReader(mb)
	if err := gob.NewDecoder(br).Decode(&meta); err != nil {
		return nil, fmt.Errorf("decoding metadata: %w", err)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%d bytes after the metadata gob", br.Len())
	}
	if err := meta.check(); err != nil {
		return nil, err
	}
	grid, err := timegrid.New(time.Unix(meta.StartUnix, 0).UTC(), meta.Weeks)
	if err != nil {
		return nil, fmt.Errorf("reconstructing grid: %w", err)
	}
	holidays := make([]time.Time, 0, len(meta.Holidays))
	for _, h := range meta.Holidays {
		holidays = append(holidays, time.Unix(h, 0).UTC())
	}
	grid.SetHolidays(holidays)

	// Size both bulk sections against the bytes left before allocating.
	kLen, okK := elems(meta.N, meta.T, meta.F)
	hotLen, okHot := elems(meta.HotRows, meta.HotCols)
	if !okK || !okHot {
		return nil, fmt.Errorf("section shapes %dx%dx%d and %dx%d overflow", meta.N, meta.T, meta.F, meta.HotRows, meta.HotCols)
	}
	if int64(kLen) > left/8 || int64(hotLen) > left-8*int64(kLen) {
		return nil, fmt.Errorf("truncated: sections need %d+%d values, %d bytes left", kLen, hotLen, left)
	}
	if extra := left - 8*int64(kLen) - int64(hotLen); extra != 0 {
		return nil, fmt.Errorf("%d trailing bytes", extra)
	}

	off := size - left
	k := &tensor.Tensor3{N: meta.N, T: meta.T, F: meta.F, Data: make([]float64, kLen)}
	if err := readSection(ra, off, f64Bytes(k.Data), sumK, "K"); err != nil {
		return nil, err
	}
	if !binenc.NativeLittle() {
		raw := f64Bytes(k.Data)
		for i := range k.Data {
			k.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	hot := &tensor.Mask{Rows: meta.HotRows, Cols: meta.HotCols, Data: make([]uint8, hotLen)}
	if err := readSection(ra, off+8*int64(kLen), hot.Data, sumHot, "HotDrive"); err != nil {
		return nil, err
	}
	if err := checkFlags(hot.Data); err != nil {
		return nil, err
	}
	return &Dataset{
		Grid:   grid,
		Config: meta.Config,
		Topo:   meta.Topo,
		K:      k,
		Truth:  &Truth{HotDrive: hot, Episodes: meta.Episodes},
	}, nil
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

// readSection fills raw with the bytes at offset off of r, read straight
// into its memory and verified against want as they arrive
// (binenc.ReadChecksummed).
func readSection(r io.ReaderAt, off int64, raw []byte, want binenc.Sum, name string) error {
	got, err := binenc.ReadChecksummed(r, off, raw)
	if err != nil {
		return fmt.Errorf("reading %s: %w", name, err)
	}
	if got != want {
		return fmt.Errorf("%s checksum mismatch: stored %v, computed %v", name, want, got)
	}
	return nil
}

// SaveFile writes the dataset to path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from path. The section sizes its header
// declares are checked against the file size before anything is
// allocated.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// SelectSectors restricts the dataset in place to the listed sectors (the
// missing-value filtering step) and returns d. keep must be strictly
// ascending, as score.FilterSectors returns it. K and Truth.HotDrive are
// compacted in their own storage (see tensor.Tensor3.SelectSectors), so
// the caller gives up the unfiltered dataset: read anything needed from it
// (its sector count, say) before the call. Sector IDs in the new topology
// are re-numbered to be dense; tower membership is preserved for the
// survivors. Truth episodes are re-indexed accordingly.
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
