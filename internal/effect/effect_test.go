package effect

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"gstm/internal/binio"
)

func sample() *Manifest {
	return &Manifest{Sites: []Site{
		{Key: "gstm/examples.scan@bank.go:10", Tx: "tx 100", TxID: 100,
			Class: ReadOnly},
		{Key: "gstm/examples.transfer@bank.go:30", Tx: "tx 101", TxID: 101,
			Class: WriteBounded, Writes: []string{"Var accounts[a]", "Var accounts[b]"}},
		{Key: "gstm/examples.audit@bank.go:55", Tx: "tx audit", TxID: -1,
			Class: Unknown, Reason: "dynamic call through stored func value"},
		{Key: "gstm/examples.reset@bank.go:70", Tx: "tx 102", TxID: 102,
			Irrevocable: true, Class: WriteBounded, Writes: []string{"Var accounts[0]"}},
	}}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sample()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Sites) != len(m.Sites) {
		t.Fatalf("round trip lost sites: got %d, want %d", len(got.Sites), len(m.Sites))
	}
	for i, want := range m.Sites {
		g := got.Sites[i]
		if g.Key != want.Key || g.Tx != want.Tx || g.TxID != want.TxID ||
			g.Irrevocable != want.Irrevocable || g.Class != want.Class ||
			g.Reason != want.Reason || len(g.Writes) != len(want.Writes) {
			t.Errorf("site %d mismatch: got %+v, want %+v", i, g, want)
		}
		for j := range want.Writes {
			if g.Writes[j] != want.Writes[j] {
				t.Errorf("site %d write %d: got %q, want %q", i, j, g.Writes[j], want.Writes[j])
			}
		}
	}
}

// TestEncodeDeterministic: the freshness gate in check.sh diffs
// regenerated manifests byte-for-byte, so identical content must
// encode identically.
func TestEncodeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sample().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := sample().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same manifest differ")
	}
}

// TestDecodeRejectsEveryBitFlip: a certificate that skips safety
// mechanisms must not survive corruption — every single-bit flip of
// the sealed container has to fail the CRC or a structural check.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sealed := buf.Bytes()
	for i := range sealed {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), sealed...)
			mut[i] ^= 1 << bit
			if _, err := Decode(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded cleanly", i, bit)
			}
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sealed := buf.Bytes()
	for n := 0; n < len(sealed); n += 7 {
		if _, err := Decode(bytes.NewReader(sealed[:n])); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	_, err := Decode(strings.NewReader("not a manifest at all"))
	if err == nil {
		t.Fatal("garbage input decoded cleanly")
	}
}

// TestDecodeRejectsVersion1: a well-sealed GSTMEFF1 container (whose
// sites also carried two cost estimates) is refused by version, with the
// command that regenerates it, and never read as GSTMEFF2.
func TestDecodeRejectsVersion1(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := binio.Unseal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte("GSTMEFF1"), payload[len("GSTMEFF2"):]...)
	_, err = Decode(bytes.NewReader(binio.Seal(old)))
	if err == nil {
		t.Fatal("a GSTMEFF1 container decoded cleanly")
	}
	for _, want := range []string{"GSTMEFF1", "regenerate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestCertifiedReadOnly(t *testing.T) {
	m := &Manifest{Sites: []Site{
		{Key: "b@f:2", Tx: "tx 7", TxID: 7, Class: ReadOnly},
		{Key: "a@f:1", Tx: "tx 7", TxID: 7, Class: ReadOnly}, // same ID, both readonly
		{Key: "c@f:3", Tx: "tx 8", TxID: 8, Class: ReadOnly},
		{Key: "d@f:4", Tx: "tx 8", TxID: 8, Class: WriteBounded, Writes: []string{"Var x"}}, // poisons 8
		{Key: "e@f:5", Tx: "tx 9", TxID: 9, Class: Unknown},
		{Key: "g@f:6", Tx: "tx scan", TxID: -1, Class: ReadOnly}, // no constant ID: not certifiable
		{Key: "h@f:7", Tx: "tx 10", TxID: 10, Class: ReadOnly, Irrevocable: true},
	}}
	got := m.CertifiedReadOnly()
	if len(got) != 1 {
		t.Fatalf("certified = %v, want exactly tx 7", got)
	}
	// Deterministic diagnostic key: lexicographically smallest.
	if got[7] != "a@f:1" {
		t.Errorf("certified[7] = %q, want %q", got[7], "a@f:1")
	}
}

func TestCertifiedReadOnlyEmpty(t *testing.T) {
	m := &Manifest{Sites: []Site{{Key: "k", Tx: "tx 1", TxID: 1, Class: Unknown}}}
	if got := m.CertifiedReadOnly(); got != nil {
		t.Fatalf("uncertifiable manifest yielded %v", got)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sites.gsm")
	m := sample()
	if err := m.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got.Sites) != len(m.Sites) {
		t.Fatalf("file round trip lost sites: got %d, want %d", len(got.Sites), len(m.Sites))
	}
	ro, wb, unk := got.Counts()
	if ro != 1 || wb != 2 || unk != 1 {
		t.Errorf("Counts = (%d, %d, %d), want (1, 2, 1)", ro, wb, unk)
	}
}

func TestClassAndGuardStrings(t *testing.T) {
	if ReadOnly.String() != "readonly" || WriteBounded.String() != "write-bounded" || Unknown.String() != "unknown" {
		t.Error("Class.String mismatch")
	}
	if !GuardTrap.Traps() || GuardRecover.Traps() {
		t.Error("GuardMode.Traps mismatch")
	}
	if GuardAuto.Traps() != RaceEnabled {
		t.Error("GuardAuto must follow the race-build default")
	}
}
