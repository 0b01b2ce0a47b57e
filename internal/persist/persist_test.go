package persist

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestBufRdRoundTrip(t *testing.T) {
	var b Buf
	b.U8(7)
	b.Bool(true)
	b.Bool(false)
	b.U32(0xDEADBEEF)
	b.U64(1 << 50)
	b.I64(-42)
	b.F64(3.25)
	b.I32s([]int32{-1, 0, 1, 1 << 30})
	b.I32s(nil)
	b.U64s([]uint64{0, ^uint64(0)})
	b.F64s([]float64{0.5, -2.75})
	b.Bools([]bool{true, false, true})
	b.Ints([]int{-3, 9})
	b.Str("hello")
	b.Str("")
	b.Strs([]string{"a", "", "longer string"})
	b.Strs(nil)

	r := NewRd(b.Bytes())
	if v := r.U8("u8"); v != 7 {
		t.Fatalf("u8 = %d", v)
	}
	if !r.Bool("b1") || r.Bool("b2") {
		t.Fatal("bools")
	}
	if v := r.U32("u32"); v != 0xDEADBEEF {
		t.Fatalf("u32 = %x", v)
	}
	if v := r.U64("u64"); v != 1<<50 {
		t.Fatalf("u64 = %d", v)
	}
	if v := r.I64("i64"); v != -42 {
		t.Fatalf("i64 = %d", v)
	}
	if v := r.F64("f64"); v != 3.25 {
		t.Fatalf("f64 = %v", v)
	}
	i32s := r.I32s("i32s")
	if len(i32s) != 4 || i32s[0] != -1 || i32s[3] != 1<<30 {
		t.Fatalf("i32s = %v", i32s)
	}
	if v := r.I32s("empty i32s"); v != nil {
		t.Fatalf("empty i32s = %v", v)
	}
	u64s := r.U64s("u64s")
	if len(u64s) != 2 || u64s[1] != ^uint64(0) {
		t.Fatalf("u64s = %v", u64s)
	}
	f64s := r.F64s("f64s")
	if len(f64s) != 2 || f64s[1] != -2.75 {
		t.Fatalf("f64s = %v", f64s)
	}
	bools := r.Bools("bools")
	if len(bools) != 3 || !bools[0] || bools[1] || !bools[2] {
		t.Fatalf("bools = %v", bools)
	}
	ints := r.Ints("ints")
	if len(ints) != 2 || ints[0] != -3 || ints[1] != 9 {
		t.Fatalf("ints = %v", ints)
	}
	if s := r.Str("str"); s != "hello" {
		t.Fatalf("str = %q", s)
	}
	if s := r.Str("empty str"); s != "" {
		t.Fatalf("empty str = %q", s)
	}
	strs := r.Strs("strs")
	if len(strs) != 3 || strs[0] != "a" || strs[1] != "" || strs[2] != "longer string" {
		t.Fatalf("strs = %v", strs)
	}
	if v := r.Strs("empty strs"); v != nil {
		t.Fatalf("empty strs = %v", v)
	}
	if !r.Done() {
		t.Fatalf("not done: err=%v", r.Err())
	}
}

func TestRdStickyErrors(t *testing.T) {
	r := NewRd([]byte{1, 2})
	r.U64("truncated")
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Every further read is a zero value, same error.
	if v := r.U32("after"); v != 0 {
		t.Fatalf("post-error read = %d", v)
	}
	if s := r.Strs("after"); s != nil {
		t.Fatalf("post-error strs = %v", s)
	}
	r2 := NewRd(nil)
	r2.Fail("structural check")
	if r2.Err() == nil {
		t.Fatal("Fail did not stick")
	}
}

func TestRdCorruptCountBounded(t *testing.T) {
	var b Buf
	b.U64(1 << 60) // absurd element count
	r := NewRd(b.Bytes())
	if v := r.I32s("huge"); v != nil || r.Err() == nil {
		t.Fatalf("corrupt count not rejected: %v, err=%v", v, r.Err())
	}
}

// encodeFileRef is the container layout written the plain way — every
// payload ready, copied behind its header — which FileEnc, encoding the
// payloads in place, has to reproduce byte for byte.
func encodeFileRef(magic uint64, secs []Section) []byte {
	var b Buf
	b.U64(magic)
	for _, s := range secs {
		b.U32(s.Kind)
		b.U32(0) // reserved / pad to 8
		b.U64(uint64(len(s.Payload)))
		b.U32(crc32.Checksum(s.Payload, castagnoli))
		b.U32(0) // pad: payload starts 8-byte aligned
		b.b = append(b.b, s.Payload...)
		for len(b.b)%8 != 0 {
			b.U8(0)
		}
	}
	b.U32(endKind)
	b.U32(0)
	b.U64(0)
	b.U32(0)
	b.U32(0)
	return b.Bytes()
}

func TestFileContainerRoundTrip(t *testing.T) {
	secs := []Section{
		{Kind: 1, Payload: []byte("alpha")},
		{Kind: 2, Payload: nil},
		{Kind: 9, Payload: bytes.Repeat([]byte{0xAB}, 37)},
	}
	const magic = 0x1122334455667788
	for _, hint := range []int{0, 4096} {
		e := NewFileEnc(magic, hint)
		for _, s := range secs {
			e.Begin(s.Kind)
			for _, c := range s.Payload {
				e.U8(c)
			}
			e.End()
		}
		if !bytes.Equal(e.Finish(), encodeFileRef(magic, secs)) {
			t.Fatalf("FileEnc (size hint %d) does not write the container layout", hint)
		}
	}
	img := encodeFileRef(magic, secs)
	got, err := DecodeFile(magic, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d sections", len(got))
	}
	for i := range secs {
		if got[i].Kind != secs[i].Kind || !bytes.Equal(got[i].Payload, secs[i].Payload) {
			t.Fatalf("section %d mismatch", i)
		}
	}
	if FindSection(got, 9) == nil || FindSection(got, 3) != nil {
		t.Fatal("FindSection")
	}

	if _, err := DecodeFile(magic+1, img); err == nil {
		t.Fatal("wrong magic accepted")
	}
	// Flip a payload byte: checksum must catch it.
	bad := append([]byte(nil), img...)
	bad[len(bad)-30] ^= 0x01
	if _, err := DecodeFile(magic, bad); err == nil {
		t.Fatal("corrupt payload accepted")
	}
	// Truncate before the end marker: incomplete file rejected.
	if _, err := DecodeFile(magic, img[:len(img)-10]); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestWALAppendReadTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for i, p := range payloads {
		if err := w.Append(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	must := func(recs []WALRecord, want int) {
		t.Helper()
		if len(recs) != want {
			t.Fatalf("%d records, want %d", len(recs), want)
		}
		for i, r := range recs[:want] {
			if r.Ticket != uint64(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("record %d = %d %q", i, r.Ticket, r.Payload)
			}
		}
	}
	recs, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	must(recs, 4)
	w.Close()

	// Torn tail: garbage after the valid records is ignored...
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x57, 0x44, 0x52, 0x31, 0xFF}) // magic prefix then junk
	f.Close()
	recs, err = ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	must(recs, 4)

	// ...and OpenWALAppend trims it so new appends extend cleanly.
	w, err = OpenWALAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, err = ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[4].Ticket != 5 || string(recs[4].Payload) != "five" {
		t.Fatalf("after trim+append: %d records", len(recs))
	}

	// Corrupt a middle record: the scan stops there (prefix semantics).
	data, _ := os.ReadFile(path)
	data[20] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	recs, _ = ReadWAL(path)
	if len(recs) >= 5 {
		t.Fatalf("corrupt record did not end scan: %d records", len(recs))
	}

	// Missing file reads as empty.
	recs, err = ReadWAL(filepath.Join(dir, "nope.log"))
	if err != nil || recs != nil {
		t.Fatalf("missing file: %v %v", recs, err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2 longer")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2 longer" {
		t.Fatalf("%q %v", got, err)
	}
	// No tmp litter left behind.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("%d entries in dir", len(ents))
	}
}

// An owned decoder cuts its strings from the payload; a copying one must
// not. Both decode the same values, and both refuse a read past the end.
func TestRdOwned(t *testing.T) {
	var b Buf
	b.Str("relation")
	b.Strs([]string{"a", "", "ccc"})
	b.I32s([]int32{7, -1, 1 << 30})
	for _, owned := range []bool{false, true} {
		payload := append([]byte(nil), b.Bytes()...)
		r := NewRd(payload)
		if owned {
			r = NewRdOwned(payload)
		}
		name := r.Str("name")
		cols := r.Strs("cols")
		ints := r.I32s("ints")
		if name != "relation" || !slices.Equal(cols, []string{"a", "", "ccc"}) || !slices.Equal(ints, []int32{7, -1, 1 << 30}) || r.Err() != nil {
			t.Fatalf("owned=%v: decoded %q %q %v, err %v", owned, name, cols, ints, r.Err())
		}
		if r.Strs("past the end"); r.Err() == nil {
			t.Fatalf("owned=%v: Strs read a table past the end of the payload", owned)
		}
		for i := range payload {
			payload[i] = '#'
		}
		if got := name == "relation" && cols[2] == "ccc"; got == owned {
			t.Fatalf("owned=%v, but the strings survive overwriting the payload: %v", owned, got)
		}
	}
}
