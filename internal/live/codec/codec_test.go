package codec

import (
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.Bool(true)
	w.U32(1 << 31)
	w.U64(1 << 63)
	w.I32(-2)
	w.I64(-3)
	w.Bytes([]byte("ab"))
	w.Bytes(nil)
	w.I32s([]int32{4, -5})
	w.I32s(nil)
	r := NewReader(w.B, "test")
	got := []any{r.U8(), r.Bool(), r.U32(), r.U64(), r.I32(), r.I64(), r.Bytes(), r.View(), r.I32s(), r.I32s()}
	want := []any{uint8(7), true, uint32(1 << 31), uint64(1 << 63), int32(-2), int64(-3), []byte("ab"), []byte(nil), []int32{4, -5}, []int32(nil)}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestViewAliasesAndBytesCopies: View is a capacity-clipped sub-slice
// of the input, Bytes a copy.
func TestViewAliasesAndBytesCopies(t *testing.T) {
	var w Writer
	w.Bytes([]byte("xy"))
	w.Bytes([]byte("zw"))
	r := NewReader(w.B, "test")
	v, c := r.View(), r.Bytes()
	w.B[4], w.B[10] = 'X', 'Z'
	if string(v) != "Xy" || cap(v) != len(v) {
		t.Errorf("View = %q with cap %d, want the input's bytes with no spare capacity", v, cap(v))
	}
	if string(c) != "zw" {
		t.Errorf("Bytes = %q, want a copy", c)
	}
}

// TestStrictAndTotal: each malformed input is an error naming the
// format, and reads after the first failure return zero values.
func TestStrictAndTotal(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		read func(r *Reader)
		msg  string
	}{
		{"truncated int", []byte{1, 2, 3}, func(r *Reader) { r.U32() }, "truncated"},
		{"oversized count", []byte{3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, func(r *Reader) { r.I32s() }, "oversized"},
		{"oversized bytes", []byte{0xff, 0xff, 0xff, 0xff, 1}, func(r *Reader) { r.View() }, "oversized"},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }, "bool byte 2"},
		{"trailing byte", []byte{1, 0}, func(r *Reader) { r.U8() }, "trailing"},
	} {
		r := NewReader(tc.b, "test format")
		tc.read(&r)
		err := r.Done()
		if err == nil || !strings.HasPrefix(err.Error(), "test format ") || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want one starting with the prefix and naming %q", tc.name, err, tc.msg)
		}
		if v := r.U64(); v != 0 || r.Err() != err {
			t.Errorf("%s: read after failure gave %d and error %v", tc.name, v, r.Err())
		}
	}
}
