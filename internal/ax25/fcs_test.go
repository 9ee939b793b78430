package ax25

import (
	"testing"
	"testing/quick"
)

func TestFCSKnownVector(t *testing.T) {
	// The CCITT CRC16 (reflected, init 0xFFFF, xorout 0xFFFF), also
	// known as CRC-16/X-25, of "123456789" is 0x906E.
	if got := FCS([]byte("123456789")); got != 0x906E {
		t.Fatalf("FCS = %#04x, want 0x906e", got)
	}
}

func TestAppendCheckRoundTrip(t *testing.T) {
	body := []byte("the quick brown fox")
	framed := AppendFCS(append([]byte(nil), body...))
	if len(framed) != len(body)+2 {
		t.Fatalf("framed len = %d", len(framed))
	}
	got, ok := CheckFCS(framed)
	if !ok {
		t.Fatal("CheckFCS failed on valid frame")
	}
	if string(got) != string(body) {
		t.Fatalf("body = %q", got)
	}
}

func TestCheckFCSDetectsCorruption(t *testing.T) {
	framed := AppendFCS([]byte("payload bytes here"))
	for i := range framed {
		mut := append([]byte(nil), framed...)
		mut[i] ^= 0x01
		if _, ok := CheckFCS(mut); ok {
			t.Fatalf("single-bit error at byte %d not detected", i)
		}
	}
}

func TestCheckFCSShort(t *testing.T) {
	if _, ok := CheckFCS([]byte{0x01}); ok {
		t.Fatal("1-byte frame must fail")
	}
	if _, ok := CheckFCS(nil); ok {
		t.Fatal("empty frame must fail")
	}
}

func TestQuickFCSRoundTrip(t *testing.T) {
	f := func(body []byte) bool {
		framed := AppendFCS(append([]byte(nil), body...))
		got, ok := CheckFCS(framed)
		return ok && string(got) == string(body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFCSBitErrorDetected(t *testing.T) {
	f := func(body []byte, pos uint16, bit uint8) bool {
		if len(body) == 0 {
			return true
		}
		framed := AppendFCS(append([]byte(nil), body...))
		framed[int(pos)%len(framed)] ^= 1 << (bit % 8)
		_, ok := CheckFCS(framed)
		return !ok // any single-bit error must be detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refFCS is the CRC one byte and one bit at a time, straight from the
// polynomial: the oracle FuzzFCS holds the slicing-by-8 tables to.
func refFCS(p []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range p {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0x8408
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// FuzzFCS checks FCS against refFCS on arbitrary bytes, trimmed by
// zero to seven bytes so that every length mod 8 (the slicing-by-8
// tail) is covered from each input, and checks that the appended FCS
// verifies.
func FuzzFCS(f *testing.F) {
	f.Add([]byte("123456789"))
	f.Add([]byte{})
	f.Add([]byte{0xC0, 0xDB, 0x00, 0xFF, 0x7E})
	f.Fuzz(func(t *testing.T, p []byte) {
		for k := 0; k < 8 && k <= len(p); k++ {
			q := p[k:]
			if got, want := FCS(q), refFCS(q); got != want {
				t.Fatalf("FCS(% x) = %#04x, reference %#04x", q, got, want)
			}
			if _, ok := CheckFCS(AppendFCS(append([]byte(nil), q...))); !ok {
				t.Fatalf("CheckFCS rejects AppendFCS(% x)", q)
			}
		}
	})
}
