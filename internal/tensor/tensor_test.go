package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("zero init expected")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row should share storage")
	}
	col := m.Col(0)
	if col[0] != 0 || col[1] != 5 {
		t.Fatalf("Col = %v", col)
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrixFilled(2, 2, 3)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 3 {
		t.Fatal("Clone should not share storage")
	}
}

func TestMatrixCountIf(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, math.NaN())
	m.Set(1, 1, math.NaN())
	if got := m.CountIf(func(v float64) bool { return math.IsNaN(v) }); got != 2 {
		t.Fatalf("CountIf = %d, want 2", got)
	}
}

func TestTensorIndexing(t *testing.T) {
	x := NewTensor3(2, 3, 4)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				x.Set(i, j, k, v)
				v++
			}
		}
	}
	v = 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if x.At(i, j, k) != v {
					t.Fatalf("At(%d,%d,%d) = %v, want %v", i, j, k, x.At(i, j, k), v)
				}
				v++
			}
		}
	}
}

func TestTensorCellSharesStorage(t *testing.T) {
	x := NewTensor3(2, 2, 2)
	cell := x.Cell(1, 1)
	cell[0] = 42
	if x.At(1, 1, 0) != 42 {
		t.Fatal("Cell should share storage")
	}
}

func TestTensorSliceTime(t *testing.T) {
	x := NewTensor3(1, 5, 2)
	for j := 0; j < 5; j++ {
		x.Set(0, j, 0, float64(j))
		x.Set(0, j, 1, float64(j)*10)
	}
	m := x.SliceTime(0, 1, 4)
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("slice shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(0, 0) != 1 || m.At(2, 1) != 30 {
		t.Fatalf("slice content wrong: %v", m.Data)
	}
	// Copy semantics.
	m.Set(0, 0, 99)
	if x.At(0, 1, 0) != 1 {
		t.Fatal("SliceTime should copy")
	}
}

func TestTensorSliceTimePanics(t *testing.T) {
	x := NewTensor3(1, 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range slice")
		}
	}()
	x.SliceTime(0, 2, 5)
}

func TestSeriesCopy(t *testing.T) {
	x := NewTensor3(1, 4, 2)
	for j := 0; j < 4; j++ {
		x.Set(0, j, 1, float64(j*j))
	}
	s := x.SeriesCopy(0, 1)
	want := []float64{0, 1, 4, 9}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("SeriesCopy = %v", s)
		}
	}
}

func TestMissingFraction(t *testing.T) {
	x := NewTensor3(1, 2, 2)
	x.Set(0, 0, 0, math.NaN())
	if got := x.MissingFraction(); got != 0.25 {
		t.Fatalf("MissingFraction = %v, want 0.25", got)
	}
	empty := NewTensor3(0, 0, 0)
	if empty.MissingFraction() != 0 {
		t.Fatal("empty tensor missing fraction should be 0")
	}
}

func TestSelectSectors(t *testing.T) {
	x := NewTensor3(4, 2, 1)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	backing := x.Data
	y := x.SelectSectors([]int{1, 3})
	if y != x || &x.Data[0] != &backing[0] || len(x.Data) != 8 {
		t.Fatal("SelectSectors replaced or resized the backing storage")
	}
	if want := []float64{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(backing, want) {
		t.Fatalf("SelectSectors moved elements: backing %v, want %v", backing, want)
	}
	if want := []float64{2, 3, 6, 7}; x.N != 2 || !reflect.DeepEqual(x.Contiguous(), want) {
		t.Fatalf("SelectSectors = N %d %v, want N 2 %v", x.N, x.Contiguous(), want)
	}

	for _, keep := range [][]int{{2, 0}, {1, 1}, {-1}, {0, 4}} {
		x := NewTensor3(4, 2, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("keep %v: no panic", keep)
				}
			}()
			x.SelectSectors(keep)
		}()
		if x.N != 4 || len(x.Data) != 8 {
			t.Errorf("keep %v: rejected selection changed the tensor", keep)
		}
	}
}

// compacted returns a fresh tensor holding rows keep of x, the way a
// copying selection would build it.
func compacted(x *Tensor3, keep []int) *Tensor3 {
	out := NewTensor3(len(keep), x.T, x.F)
	for dst, src := range keep {
		copy(out.Sector(dst), x.Sector(src))
	}
	return out
}

// randomKeep draws a strictly ascending subset of [0, n).
func randomKeep(rng *rand.Rand, n int) []int {
	var keep []int
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			keep = append(keep, i)
		}
	}
	return keep
}

// sameTensor checks every read accessor of got against the contiguous
// reference want, bit for bit.
func sameTensor(t *testing.T, what string, got, want *Tensor3) {
	t.Helper()
	if got.N != want.N || got.T != want.T || got.F != want.F {
		t.Fatalf("%s: shape %dx%dx%d, want %dx%dx%d", what, got.N, got.T, got.F, want.N, want.T, want.F)
	}
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for i := 0; i < want.N; i++ {
		if !reflect.DeepEqual(bits(got.Sector(i)), bits(want.Sector(i))) {
			t.Fatalf("%s: Sector(%d) differs", what, i)
		}
		for j := 0; j < want.T; j++ {
			if !reflect.DeepEqual(bits(got.Cell(i, j)), bits(want.Cell(i, j))) {
				t.Fatalf("%s: Cell(%d, %d) differs", what, i, j)
			}
			for k := 0; k < want.F; k++ {
				if math.Float64bits(got.At(i, j, k)) != math.Float64bits(want.At(i, j, k)) {
					t.Fatalf("%s: At(%d, %d, %d) differs", what, i, j, k)
				}
			}
		}
		for k := 0; k < want.F; k++ {
			if !reflect.DeepEqual(bits(got.SeriesCopy(i, k)), bits(want.SeriesCopy(i, k))) {
				t.Fatalf("%s: SeriesCopy(%d, %d) differs", what, i, k)
			}
		}
		if !reflect.DeepEqual(bits(got.SliceTime(i, 1, want.T-1).Data), bits(want.SliceTime(i, 1, want.T-1).Data)) {
			t.Fatalf("%s: SliceTime(%d) differs", what, i)
		}
	}
	if !reflect.DeepEqual(bits(got.Contiguous()), bits(want.Data)) {
		t.Fatalf("%s: Contiguous differs", what)
	}
	if c := got.Clone(); !reflect.DeepEqual(bits(c.Data), bits(want.Data)) || len(c.Data) != len(want.Data) {
		t.Fatalf("%s: Clone differs", what)
	}
	if a, b := got.MissingFraction(), want.MissingFraction(); a != b {
		t.Fatalf("%s: MissingFraction %v, want %v", what, a, b)
	}
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

// TestSelectSectorsIndexMatchesCompacted: for random ascending keep sets,
// applied once or twice in a row, every accessor of the indexed tensor
// equals a compacted copy, writes through Set and Fill land on the same
// logical elements, and the backing storage keeps every discarded row.
func TestSelectSectorsIndexMatchesCompacted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n, tt, f := 1+rng.Intn(12), 2+rng.Intn(5), 1+rng.Intn(4)
		x := NewTensor3(n, tt, f)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				x.Data[i] = math.NaN()
			}
		}
		orig := append([]float64(nil), x.Data...)
		ref := x.Clone()
		for step := 0; step < 2; step++ {
			keep := randomKeep(rng, x.N)
			ref = compacted(ref, keep)
			x.SelectSectors(keep)
			sameTensor(t, fmt.Sprintf("trial %d step %d keep %v", trial, step, keep), x, ref)
		}
		if i, ok := sameBits(x.Data, orig); !ok {
			t.Fatalf("trial %d: selection changed the backing storage at %d", trial, i)
		}
		if x.N == 0 {
			continue
		}
		i, j, k := rng.Intn(x.N), rng.Intn(tt), rng.Intn(f)
		x.Set(i, j, k, 1e9)
		ref.Set(i, j, k, 1e9)
		sameTensor(t, fmt.Sprintf("trial %d after Set", trial), x, ref)
		x.Fill(-2)
		ref.Fill(-2)
		sameTensor(t, fmt.Sprintf("trial %d after Fill", trial), x, ref)
		filled := 0
		for _, v := range x.Data {
			if v == -2 {
				filled++
			}
		}
		if filled != x.N*tt*f {
			t.Fatalf("trial %d: Fill wrote %d elements, want the %d selected ones", trial, filled, x.N*tt*f)
		}
	}
}

func TestSelectRows(t *testing.T) {
	m := NewMatrix(3, 2)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	m.SelectRows([]int{0, 2})
	if m.Rows != 2 || !reflect.DeepEqual(m.Data, []float64{0, 1, 4, 5}) || cap(m.Data) != 4 {
		t.Fatalf("SelectRows = %d rows %v (cap %d)", m.Rows, m.Data, cap(m.Data))
	}
}

func TestMaskSelectRows(t *testing.T) {
	m := NewMask(4, 3)
	for i := range m.Data {
		m.Data[i] = uint8(i % 2)
	}
	storage := &m.Data[0]
	if got := m.SelectRows([]int{1, 2}); got != m || &m.Data[0] != storage {
		t.Fatal("SelectRows did not compact the mask in place")
	}
	if want := []uint8{1, 0, 1, 0, 1, 0}; m.Rows != 2 || m.Cols != 3 || !reflect.DeepEqual(m.Data, want) || cap(m.Data) != 6 {
		t.Fatalf("SelectRows = %dx%d %v (cap %d), want 2x3 %v", m.Rows, m.Cols, m.Data, cap(m.Data), want)
	}
	if m.At(1, 0) != 0 || m.Row(1)[1] != 1 {
		t.Fatalf("At/Row disagree with Data %v", m.Data)
	}
	for _, keep := range [][]int{{2, 0}, {1, 1}, {-1}, {0, 4}} {
		m := NewMask(4, 3)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("keep %v: no panic", keep)
				}
			}()
			m.SelectRows(keep)
		}()
		if m.Rows != 4 || len(m.Data) != 12 {
			t.Errorf("keep %v: rejected selection changed the mask", keep)
		}
	}
}

func TestConcatFeatures(t *testing.T) {
	a := NewTensor3(2, 2, 1)
	b := NewTensor3(2, 2, 2)
	a.Fill(1)
	b.Fill(2)
	c := ConcatFeatures(a, b)
	if c.F != 3 {
		t.Fatalf("F = %d, want 3", c.F)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			cell := c.Cell(i, j)
			if cell[0] != 1 || cell[1] != 2 || cell[2] != 2 {
				t.Fatalf("cell(%d,%d) = %v", i, j, cell)
			}
		}
	}
}

func TestConcatFeaturesShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConcatFeatures(NewTensor3(2, 2, 1), NewTensor3(2, 3, 1))
}

func TestRepeatRows(t *testing.T) {
	m := NewMatrix(3, 2) // rows = time here
	m.Set(0, 0, 5)
	m.Set(2, 1, 7)
	x := RepeatRows(4, m)
	if x.N != 4 || x.T != 3 || x.F != 2 {
		t.Fatalf("shape = %d,%d,%d", x.N, x.T, x.F)
	}
	for i := 0; i < 4; i++ {
		if x.At(i, 0, 0) != 5 || x.At(i, 2, 1) != 7 {
			t.Fatalf("sector %d not a copy", i)
		}
	}
}

func TestUpsampleMatrix(t *testing.T) {
	m := NewMatrix(2, 3) // 2 sectors, 3 days
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 1, 9)
	x := UpsampleMatrix(24, m)
	if x.N != 2 || x.T != 72 || x.F != 1 {
		t.Fatalf("shape = %d,%d,%d", x.N, x.T, x.F)
	}
	if x.At(0, 0, 0) != 1 || x.At(0, 23, 0) != 1 {
		t.Fatal("first day should be all 1")
	}
	if x.At(0, 24, 0) != 2 || x.At(0, 47, 0) != 2 {
		t.Fatal("second day should be all 2")
	}
	if x.At(1, 25, 0) != 9 {
		t.Fatal("sector 1 second day should be 9")
	}
}

func TestUpsampleMatrixPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UpsampleMatrix(0, NewMatrix(1, 1))
}

func TestMatrixToTensor(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 3)
	x := MatrixToTensor(m)
	if x.N != 2 || x.T != 2 || x.F != 1 || x.At(1, 0, 0) != 3 {
		t.Fatal("MatrixToTensor wrong")
	}
}

// Property: ConcatFeatures preserves each input's values at the right
// offsets.
func TestConcatFeaturesProperty(t *testing.T) {
	f := func(vals [6]float64) bool {
		a := NewTensor3(1, 2, 1)
		b := NewTensor3(1, 2, 2)
		a.Set(0, 0, 0, vals[0])
		a.Set(0, 1, 0, vals[1])
		b.Set(0, 0, 0, vals[2])
		b.Set(0, 0, 1, vals[3])
		b.Set(0, 1, 0, vals[4])
		b.Set(0, 1, 1, vals[5])
		c := ConcatFeatures(a, b)
		eq := func(x, y float64) bool {
			return x == y || (math.IsNaN(x) && math.IsNaN(y))
		}
		return eq(c.At(0, 0, 0), vals[0]) && eq(c.At(0, 1, 0), vals[1]) &&
			eq(c.At(0, 0, 1), vals[2]) && eq(c.At(0, 0, 2), vals[3]) &&
			eq(c.At(0, 1, 1), vals[4]) && eq(c.At(0, 1, 2), vals[5])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: upsampling then averaging each block recovers the original.
func TestUpsampleRoundTripProperty(t *testing.T) {
	f := func(v0, v1, v2 float64, factorRaw uint8) bool {
		factor := int(factorRaw%6) + 1
		m := NewMatrix(1, 3)
		m.Set(0, 0, v0)
		m.Set(0, 1, v1)
		m.Set(0, 2, v2)
		x := UpsampleMatrix(factor, m)
		for j := 0; j < 3; j++ {
			want := m.At(0, j)
			for r := 0; r < factor; r++ {
				got := x.At(0, j*factor+r, 0)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
