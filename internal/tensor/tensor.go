// Package tensor provides the dense numeric containers the paper's notation
// is written in: a two-dimensional Matrix (sectors x time) and a
// three-dimensional Tensor3 (sectors x time x features), together with the
// slicing, concatenation (||3), repetition (R1) and brute-force upsampling
// (U1) operators of Eq. 5.
//
// Values are float64 and NaN marks missing measurements. Storage is a single
// contiguous slice in row-major order ([sector][time][feature]) so slices
// over the time axis of one sector are contiguous and cheap.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense 2-D array (rows x cols), row-major.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero-filled Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFilled allocates a matrix filled with v.
func NewMatrixFilled(rows, cols int, v float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into a new slice.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CountIf returns the number of elements for which pred is true.
func (m *Matrix) CountIf(pred func(float64) bool) int {
	n := 0
	for _, v := range m.Data {
		if pred(v) {
			n++
		}
	}
	return n
}

// Mask is a dense 2-D array of 0/1 flags (rows x cols), one byte per
// element, row-major: a Matrix of labels at an eighth of its size.
type Mask struct {
	Rows, Cols int
	Data       []uint8
}

// NewMask allocates an all-zero Rows x Cols mask.
func NewMask(rows, cols int) *Mask {
	if rows < 0 || cols < 0 {
		panic("tensor: negative mask dimension")
	}
	return &Mask{Rows: rows, Cols: cols, Data: make([]uint8, rows*cols)}
}

// At returns element (i, j).
func (m *Mask) At(i, j int) uint8 { return m.Data[i*m.Cols+j] }

// Row returns row i as a slice sharing the mask's storage.
func (m *Mask) Row(i int) []uint8 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Tensor3 is a dense 3-D array (N x T x F), row-major with the feature axis
// fastest. For the paper's K this is sectors x hours x KPIs.
//
// Data is the backing storage: N rows of T·F elements until SelectSectors
// restricts the tensor to a subset of its rows, after which Data keeps
// every original row and a row index maps each logical sector to its row.
// Read and write elements through the accessors (At, Set, Cell, Sector,
// ...), which go through the index. Data may be read-only memory, such as
// a mapped dataset file (simnet.LoadFile) that closes when the tensor is
// collected: a slice taken from such a tensor is valid while the tensor
// is reachable.
type Tensor3 struct {
	N, T, F int
	Data    []float64
	// rows[i] is the backing row of logical sector i; nil is the identity.
	rows []int
}

// NewTensor3 allocates a zero-filled N x T x F tensor.
func NewTensor3(n, t, f int) *Tensor3 {
	if n < 0 || t < 0 || f < 0 {
		panic("tensor: negative tensor dimension")
	}
	return &Tensor3{N: n, T: t, F: f, Data: make([]float64, n*t*f)}
}

// base returns the offset in Data of sector i's first element.
func (x *Tensor3) base(i int) int {
	if x.rows != nil {
		i = x.rows[i]
	}
	return i * x.T * x.F
}

// At returns element (i, j, k): sector i, time j, feature k.
func (x *Tensor3) At(i, j, k int) float64 { return x.Data[x.base(i)+j*x.F+k] }

// Set assigns element (i, j, k).
func (x *Tensor3) Set(i, j, k int, v float64) { x.Data[x.base(i)+j*x.F+k] = v }

// Cell returns the feature vector at (i, j) sharing storage.
func (x *Tensor3) Cell(i, j int) []float64 {
	b := x.base(i) + j*x.F
	return x.Data[b : b+x.F]
}

// Sector returns the T x F block of sector i sharing storage.
func (x *Tensor3) Sector(i int) []float64 {
	b := x.base(i)
	return x.Data[b : b+x.T*x.F]
}

// SeriesCopy copies the time series of feature k for sector i.
func (x *Tensor3) SeriesCopy(i, k int) []float64 {
	s := x.Sector(i)
	out := make([]float64, x.T)
	for j := range out {
		out[j] = s[j*x.F+k]
	}
	return out
}

// SliceTime returns a copy of X[i, j0:j1, :] as a (j1-j0) x F matrix.
// It panics when the range is out of bounds.
func (x *Tensor3) SliceTime(i, j0, j1 int) *Matrix {
	if j0 < 0 || j1 > x.T || j0 > j1 {
		panic(fmt.Sprintf("tensor: time slice [%d:%d) out of range [0:%d)", j0, j1, x.T))
	}
	m := NewMatrix(j1-j0, x.F)
	copy(m.Data, x.Sector(i)[j0*x.F:j1*x.F])
	return m
}

// Clone deep-copies the tensor's N x T x F elements into fresh, writable,
// contiguous storage with no row index.
func (x *Tensor3) Clone() *Tensor3 {
	c := NewTensor3(x.N, x.T, x.F)
	for i := 0; i < x.N; i++ {
		copy(c.Sector(i), x.Sector(i))
	}
	return c
}

// Contiguous returns the tensor's N x T x F elements in row-major order:
// Data itself when no selection is in force, a compacted copy otherwise.
func (x *Tensor3) Contiguous() []float64 {
	n := x.N * x.T * x.F
	if x.rows == nil {
		return x.Data[:n:n]
	}
	return x.Clone().Data
}

// Fill sets every element to v.
func (x *Tensor3) Fill(v float64) {
	for i := 0; i < x.N; i++ {
		s := x.Sector(i)
		for j := range s {
			s[j] = v
		}
	}
}

// MissingFraction returns the fraction of NaN entries.
func (x *Tensor3) MissingFraction() float64 {
	total := x.N * x.T * x.F
	if total == 0 {
		return 0
	}
	n := 0
	for i := 0; i < x.N; i++ {
		for _, v := range x.Sector(i) {
			if math.IsNaN(v) {
				n++
			}
		}
	}
	return float64(n) / float64(total)
}

// SelectSectors restricts x in place to the listed sectors and returns x.
// keep must be strictly ascending and in range (it panics otherwise,
// before touching x). No element moves: x records the survivors as a row
// index into Data, composed with any earlier selection, so Data may be
// read-only. The caller gives up the old shape: sector i now names the
// survivor keep[i], and a slice taken from x before the call (Sector,
// Cell) still holds the row it was taken from.
func (x *Tensor3) SelectSectors(keep []int) *Tensor3 {
	checkKeep(keep, x.N)
	if len(keep) == x.N { // strictly ascending and in range: every row
		return x
	}
	rows := make([]int, len(keep))
	for i, r := range keep {
		if x.rows != nil {
			r = x.rows[r]
		}
		rows[i] = r
	}
	x.rows, x.N = rows, len(keep)
	return x
}

// SelectRows restricts m in place to the listed rows, which must be
// strictly ascending, and returns m. Kept rows slide down over the
// discarded ones.
func (m *Matrix) SelectRows(keep []int) *Matrix {
	m.Data = compactRows(m.Data, m.Rows, m.Cols, keep)
	m.Rows = len(keep)
	return m
}

// SelectRows is Matrix.SelectRows for a mask.
func (m *Mask) SelectRows(keep []int) *Mask {
	m.Data = compactRows(m.Data, m.Rows, m.Cols, keep)
	m.Rows = len(keep)
	return m
}

// checkKeep panics unless keep is strictly ascending within [0, n).
func checkKeep(keep []int, n int) {
	for i, r := range keep {
		if r < 0 || r >= n || (i > 0 && r <= keep[i-1]) {
			panic(fmt.Sprintf("tensor: selected row %d (entry %d) is out of range [0:%d) or not above its predecessor", r, i, n))
		}
	}
}

// compactRows moves rows keep[i] of data (n rows of stride elements) to
// row i and returns the survivors as a capacity-capped slice, so nothing
// can append into the freed tail.
func compactRows[E any](data []E, n, stride int, keep []int) []E {
	checkKeep(keep, n)
	for dst, src := range keep {
		if dst != src {
			copy(data[dst*stride:(dst+1)*stride], data[src*stride:(src+1)*stride])
		}
	}
	end := len(keep) * stride
	return data[:end:end]
}

// ConcatFeatures implements the paper's ||3 operator: it concatenates
// tensors along the third (feature) dimension. All inputs must agree on N
// and T.
func ConcatFeatures(parts ...*Tensor3) *Tensor3 {
	if len(parts) == 0 {
		panic("tensor: ConcatFeatures with no inputs")
	}
	n, t := parts[0].N, parts[0].T
	totalF := 0
	for _, p := range parts {
		if p.N != n || p.T != t {
			panic(fmt.Sprintf("tensor: ConcatFeatures shape mismatch (%dx%d vs %dx%d)", p.N, p.T, n, t))
		}
		totalF += p.F
	}
	out := NewTensor3(n, t, totalF)
	for i := 0; i < n; i++ {
		for j := 0; j < t; j++ {
			dst := out.Cell(i, j)
			off := 0
			for _, p := range parts {
				copy(dst[off:off+p.F], p.Cell(i, j))
				off += p.F
			}
		}
	}
	return out
}

// RepeatRows implements the paper's R1(k, X) operator for a matrix: it
// repeats the matrix n times along a new first dimension, producing an
// n x Rows x Cols tensor. It is used to broadcast the calendar matrix C to
// every sector in Eq. 5.
func RepeatRows(n int, m *Matrix) *Tensor3 {
	out := NewTensor3(n, m.Rows, m.Cols)
	for i := 0; i < n; i++ {
		copy(out.Sector(i), m.Data)
	}
	return out
}

// UpsampleMatrix implements the paper's U1(k, X) operator for a matrix whose
// rows are sectors and whose columns are a coarse time axis: each column is
// repeated factor times along time ("brute-force upsampling"), producing an
// N x (Cols*factor) x 1 tensor. It lifts daily and weekly signals to the
// hourly grid in Eq. 5.
func UpsampleMatrix(factor int, m *Matrix) *Tensor3 {
	if factor <= 0 {
		panic("tensor: non-positive upsample factor")
	}
	out := NewTensor3(m.Rows, m.Cols*factor, 1)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			for r := 0; r < factor; r++ {
				out.Set(i, j*factor+r, 0, v)
			}
		}
	}
	return out
}

// MatrixToTensor lifts an N x T matrix into an N x T x 1 tensor.
func MatrixToTensor(m *Matrix) *Tensor3 {
	out := NewTensor3(m.Rows, m.Cols, 1)
	copy(out.Data, m.Data)
	return out
}
