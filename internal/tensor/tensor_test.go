package tensor

import (
	"math"
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
	storage := &x.Data[0]
	y := x.SelectSectors([]int{1, 3})
	if y != x || &x.Data[0] != storage {
		t.Fatal("SelectSectors did not compact in place")
	}
	if x.N != 2 || len(x.Data) != 4 || cap(x.Data) != 4 {
		t.Fatalf("shape after selection: N=%d len=%d cap=%d", x.N, len(x.Data), cap(x.Data))
	}
	if want := []float64{2, 3, 6, 7}; !reflect.DeepEqual(x.Data, want) {
		t.Fatalf("SelectSectors = %v, want %v", x.Data, want)
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
