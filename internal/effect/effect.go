// Package effect defines the static effect-certification manifest:
// the sealed artifact gstmlint's effect-inference pass produces and
// the STM runtimes consume. The lint side proves, per Atomic site,
// whether the transaction body can ever write transactional storage;
// the runtime side cashes a `readonly` verdict in as a cheaper commit
// path (no write set, no commit locks, no guide hold). Because the
// proof is static and the payoff is a skipped safety mechanism, the
// manifest format is deliberately paranoid: a GSTMEFF2 container with
// a CRC32-C trailer (internal/binio Seal/Unseal), length-prefixed
// fields, and decode errors that carry byte offsets — the same
// discipline as the model/trace containers.
//
// The manifest is keyed by the stable cross-package site keys from
// internal/lint's call graph ("pkg.Func@file:line"), but the runtimes
// only ever see a (tx, thread) pair, so certification is granted at
// transaction-ID granularity: CertifiedReadOnly admits a transaction
// ID only when *every* manifest site carrying that ID proved
// readonly. A dynamic soundness guard (GuardMode) keeps the static
// claim honest at run time.
package effect

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"gstm/internal/binio"
	"gstm/internal/safeio"
)

// Class is the statically inferred effect of one Atomic site's body.
type Class uint8

const (
	// Unknown means the analysis could not bound the write set:
	// dynamic dispatch, an escaped handle, an unresolved access root,
	// or a call outside the loaded module view.
	Unknown Class = iota
	// ReadOnly means the body provably never writes transactional
	// storage on any path, including through helpers.
	ReadOnly
	// WriteBounded means every possible write resolves to a statically
	// enumerable set of concrete storage labels (Site.Writes).
	WriteBounded
)

func (c Class) String() string {
	switch c {
	case ReadOnly:
		return "readonly"
	case WriteBounded:
		return "write-bounded"
	default:
		return "unknown"
	}
}

// Site is one certified Atomic/AtomicCtx call site.
type Site struct {
	// Key is the stable cross-package site key: "pkg.Func@file:line".
	Key string
	// Tx is the transaction label ("tx TxMove", "tx 3", ...).
	Tx string
	// TxID is the constant transaction ID, -1 when not statically known.
	TxID int
	// Irrevocable marks AtomicIrrevocable sites (never certified
	// readonly: they run under global locks by design).
	Irrevocable bool
	// Class is the inferred effect class.
	Class Class
	// Reason says why the site fell short of readonly (empty for
	// readonly sites) — surfaced by gstm011 and the -manifest summary.
	Reason string
	// Writes is the certified may-write set for write-bounded sites
	// (storage labels from the footprint pass).
	Writes []string
}

// Manifest is the full certified-site set for one module, in source
// order (the footprint pass sorts sites by file:line:col, which makes
// the encoding deterministic and the CI freshness diff meaningful).
type Manifest struct {
	Sites []Site
}

// Counts tallies sites per effect class.
func (m *Manifest) Counts() (readonly, writeBounded, unknown int) {
	for _, s := range m.Sites {
		switch s.Class {
		case ReadOnly:
			readonly++
		case WriteBounded:
			writeBounded++
		default:
			unknown++
		}
	}
	return
}

// CertifiedReadOnly maps transaction IDs to the site key that
// certifies them. An ID is certified only when every manifest site
// carrying it (the runtime cannot tell same-ID sites apart) proved
// readonly and none is irrevocable. Multi-site IDs report their
// lexicographically smallest key so diagnostics are deterministic.
func (m *Manifest) CertifiedReadOnly() map[uint16]string {
	certified := map[uint16]string{}
	poisoned := map[uint16]bool{}
	for _, s := range m.Sites {
		if s.TxID < 0 || s.TxID > math.MaxUint16 {
			continue
		}
		id := uint16(s.TxID)
		if s.Class != ReadOnly || s.Irrevocable {
			poisoned[id] = true
			continue
		}
		if key, ok := certified[id]; !ok || s.Key < key {
			certified[id] = s.Key
		}
	}
	for id := range poisoned {
		delete(certified, id)
	}
	if len(certified) == 0 {
		return nil
	}
	return certified
}

// magicEFF2 tags the sealed manifest container. GSTMEFF1, the previous
// version, also carried two per-site cost estimates; Decode rejects it
// rather than misread its sites.
var (
	magicEFF2 = [8]byte{'G', 'S', 'T', 'M', 'E', 'F', 'F', '2'}
	magicEFF1 = [8]byte{'G', 'S', 'T', 'M', 'E', 'F', 'F', '1'}
)

const (
	flagIrrevocable = 1 << 0
	// maxSites bounds decode-side allocation; real modules have tens
	// of sites, so this is purely an adversarial-input cap.
	maxSites = 1 << 20
)

// Encode writes the sealed GSTMEFF2 container. The encoding is a pure
// function of the manifest contents, so regenerating an unchanged
// module yields byte-identical output (the check.sh freshness gate
// relies on this).
func (m *Manifest) Encode(w io.Writer) error {
	buf := append([]byte(nil), magicEFF2[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Sites)))
	str := func(s string) error {
		if len(s) > math.MaxUint16 {
			return fmt.Errorf("effect: string field of %d bytes exceeds the u16 length prefix", len(s))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
		return nil
	}
	for i, s := range m.Sites {
		if s.TxID < -1 || s.TxID >= math.MaxUint32 {
			return fmt.Errorf("effect: site %d (%s): transaction ID %d not encodable", i, s.Key, s.TxID)
		}
		if err := str(s.Key); err != nil {
			return err
		}
		if err := str(s.Tx); err != nil {
			return err
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.TxID+1)) // 0 = unknown
		var flags byte
		if s.Irrevocable {
			flags |= flagIrrevocable
		}
		buf = append(buf, flags, byte(s.Class))
		if err := str(s.Reason); err != nil {
			return err
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Writes)))
		for _, label := range s.Writes {
			if err := str(label); err != nil {
				return err
			}
		}
	}
	_, err := w.Write(binio.Seal(buf))
	return err
}

// Decode reads a sealed GSTMEFF2 container, verifying the CRC before
// trusting any field. Every failure names the operation and its byte
// offset.
func Decode(r io.Reader) (*Manifest, error) {
	raw, err := binio.ReadAllCapped(r, binio.MaxEncoded)
	if err != nil {
		return nil, fmt.Errorf("effect: reading manifest: %w", err)
	}
	payload, err := binio.Unseal(raw)
	if err != nil {
		return nil, fmt.Errorf("effect: manifest container: %w", err)
	}
	rd := binio.NewReader(payload)
	fail := func(what string, err error) error {
		return fmt.Errorf("effect: decoding %s at offset %d: %w", what, rd.Offset(), err)
	}
	magic, err := rd.Bytes(len(magicEFF2))
	if err != nil {
		return nil, fail("magic", err)
	}
	if string(magic) == string(magicEFF1[:]) {
		return nil, fmt.Errorf("effect: manifest is format version GSTMEFF1, this build reads GSTMEFF2; regenerate it with gstmlint -manifest")
	}
	if string(magic) != string(magicEFF2[:]) {
		return nil, fmt.Errorf("effect: bad magic %q (not a GSTMEFF2 manifest)", magic)
	}
	count, err := rd.U32()
	if err != nil {
		return nil, fail("site count", err)
	}
	if count > maxSites {
		return nil, fmt.Errorf("effect: site count %d exceeds cap %d", count, maxSites)
	}
	if err := rd.CheckCount(count, 16, "manifest sites"); err != nil {
		return nil, fail("site count", err)
	}
	str := func(what string) (string, error) {
		n, err := rd.U16()
		if err != nil {
			return "", fail(what+" length", err)
		}
		b, err := rd.Bytes(int(n))
		if err != nil {
			return "", fail(what, err)
		}
		return string(b), nil
	}
	m := &Manifest{Sites: make([]Site, 0, count)}
	for i := uint32(0); i < count; i++ {
		var s Site
		if s.Key, err = str("site key"); err != nil {
			return nil, err
		}
		if s.Tx, err = str("tx label"); err != nil {
			return nil, err
		}
		id, err := rd.U32()
		if err != nil {
			return nil, fail("transaction ID", err)
		}
		s.TxID = int(id) - 1
		meta, err := rd.Bytes(2)
		if err != nil {
			return nil, fail("site flags", err)
		}
		s.Irrevocable = meta[0]&flagIrrevocable != 0
		if meta[1] > byte(WriteBounded) {
			return nil, fmt.Errorf("effect: site %s: unknown effect class %d at offset %d", s.Key, meta[1], rd.Offset())
		}
		s.Class = Class(meta[1])
		if s.Reason, err = str("reason"); err != nil {
			return nil, err
		}
		writes, err := rd.U32()
		if err != nil {
			return nil, fail("write count", err)
		}
		if err := rd.CheckCount(writes, 2, "certified writes"); err != nil {
			return nil, fail("write count", err)
		}
		for j := uint32(0); j < writes; j++ {
			label, err := str("write label")
			if err != nil {
				return nil, err
			}
			s.Writes = append(s.Writes, label)
		}
		m.Sites = append(m.Sites, s)
	}
	if rd.Remaining() != 0 {
		return nil, fmt.Errorf("effect: %d trailing bytes after %d sites", rd.Remaining(), count)
	}
	return m, nil
}

// WriteFile atomically writes the sealed manifest to path.
func (m *Manifest) WriteFile(path string) error {
	return safeio.WriteFileAtomic(path, m.Encode)
}

// ReadFile loads a sealed manifest from path.
func ReadFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// SortSites orders sites by key — handy for manifests assembled by
// hand (tests, explorer workloads); lint-produced manifests are
// already in deterministic source order.
func (m *Manifest) SortSites() {
	sort.Slice(m.Sites, func(i, j int) bool { return m.Sites[i].Key < m.Sites[j].Key })
}
