package checkpoint

// Deterministic binary serialization of snapshots, and the self-verifying
// fragment container the redundant stores (ECStore, ReplicatedStore) keep
// on their shards. gob is deliberately not used here: gob's type-descriptor
// stream depends on encoder history, while redundancy needs every fragment
// of one snapshot to be a pure function of the snapshot alone so encode →
// split → reconstruct → decode is byte-stable across runs.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// snapMagic/fragMagic version the two on-shard formats; bump on layout
// changes so stale persisted fragments are rejected, not misdecoded
// (HYSN1 carried a per-message recovery round; HYFR1 was the
// varint-header, FNV-64a-sealed container).
const (
	snapMagic = "HYSN2"
	fragMagic = "HYFR2"
)

// EncodeSnapshot serializes a snapshot into a deterministic byte blob:
// equal snapshots encode to equal bytes, independent of encoder history.
// Mailbox messages must be application messages — a control message
// (CtlBody != nil) never survives into a mailbox capture, and encoding
// one is an error rather than a silent drop.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	segs, total, err := snapshotSegments(s)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, total)
	for _, seg := range segs {
		b = append(b, seg...)
	}
	return b, nil
}

// snapshotSegments lays the encoding of s out as the byte segments
// whose concatenation is the blob, and reports their total length. The
// field encodings are fresh bytes; AppState, ProtState and the message
// payloads are referenced, not copied, so a consumer that places the
// blob somewhere (EncodeSnapshot into one buffer, the redundant stores
// straight into their fragments) moves those bytes exactly once.
func snapshotSegments(s *Snapshot) (segs [][]byte, total int, err error) {
	segs = make([][]byte, 0, 5+2*len(s.Mailbox))
	// b accumulates field encodings; b[mark:] is the run not yet emitted.
	// Regrowing b leaves emitted runs intact in the old array.
	b := make([]byte, 0, 96+64*len(s.Mailbox))
	mark := 0
	byteString := func(p []byte) {
		b = binary.AppendUvarint(b, uint64(len(p)))
		segs = append(segs, b[mark:], p)
		total += len(b) - mark + len(p)
		mark = len(b)
	}
	b = append(b, snapMagic...)
	b = binary.AppendVarint(b, int64(s.Rank))
	b = binary.AppendVarint(b, int64(s.Seq))
	b = binary.AppendVarint(b, int64(s.TakenVT))
	b = binary.AppendVarint(b, int64(s.CkptCallIdx))
	b = binary.AppendVarint(b, s.CollSeq)
	b = binary.AppendVarint(b, s.ModelBytes)
	byteString(s.AppState)
	byteString(s.ProtState)
	b = binary.AppendUvarint(b, uint64(len(s.Mailbox)))
	for i, m := range s.Mailbox {
		if m.CtlBody != nil {
			return nil, 0, fmt.Errorf("checkpoint: encode snapshot rank %d seq %d: mailbox message %d carries a control body", s.Rank, s.Seq, i)
		}
		b = binary.AppendVarint(b, int64(m.Src))
		b = binary.AppendVarint(b, int64(m.Dst))
		b = binary.AppendVarint(b, int64(m.Kind))
		b = binary.AppendVarint(b, int64(m.Tag))
		b = binary.AppendVarint(b, m.Date)
		b = binary.AppendVarint(b, int64(m.Phase))
		b = binary.AppendVarint(b, int64(m.Inc))
		b = binary.AppendVarint(b, int64(m.IncSeen))
		b = binary.AppendVarint(b, int64(m.Epoch))
		b = binary.AppendVarint(b, int64(m.WireLen))
		b = binary.AppendVarint(b, int64(m.PiggyLen))
		byteString(m.Data)
		b = binary.AppendVarint(b, int64(m.SendVT))
		b = binary.AppendVarint(b, int64(m.ArriveVT))
	}
	segs = append(segs, b[mark:])
	total += len(b) - mark
	return segs, total, nil
}

// stripe copies the segments, in order, across the consecutive regions —
// the layout of a blob over its data fragments — and zero-fills what the
// blob leaves of the last ones. The regions must hold the segments.
func stripe(regions [][]byte, segs [][]byte) {
	j, off := 0, 0
	for _, seg := range segs {
		for len(seg) > 0 {
			n := copy(regions[j][off:], seg)
			seg = seg[n:]
			if off += n; off == len(regions[j]) {
				j, off = j+1, 0
			}
		}
	}
	for ; j < len(regions); j, off = j+1, 0 {
		clear(regions[j][off:])
	}
}

// DecodeSnapshot reverses EncodeSnapshot. The returned snapshot shares
// nothing with the input slice's backing beyond fresh copies.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	d := &decoder{b: b}
	if !d.literal(snapMagic) {
		return nil, fmt.Errorf("checkpoint: snapshot blob lacks %q header", snapMagic)
	}
	s := &Snapshot{}
	s.Rank = int(d.varint())
	s.Seq = int(d.varint())
	s.TakenVT = vtime.Time(d.varint())
	s.CkptCallIdx = int(d.varint())
	s.CollSeq = d.varint()
	s.ModelBytes = d.varint()
	s.AppState = d.bytes()
	s.ProtState = d.bytes()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(b)) {
		return nil, fmt.Errorf("checkpoint: snapshot blob claims %d mailbox messages in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m := &transport.Msg{}
		m.Src = int(d.varint())
		m.Dst = int(d.varint())
		m.Kind = transport.Kind(d.varint())
		m.Tag = int(d.varint())
		m.Date = d.varint()
		m.Phase = int(d.varint())
		m.Inc = int32(d.varint())
		m.IncSeen = int32(d.varint())
		m.Epoch = int(d.varint())
		m.WireLen = int(d.varint())
		m.PiggyLen = int(d.varint())
		m.Data = d.bytes()
		m.SendVT = vtime.Time(d.varint())
		m.ArriveVT = vtime.Time(d.varint())
		s.Mailbox = append(s.Mailbox, m)
	}
	if d.err != nil {
		return nil, fmt.Errorf("checkpoint: decode snapshot: %w", d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("checkpoint: decode snapshot: %d trailing bytes", len(d.b))
	}
	return s, nil
}

// fragment is the unit the redundant stores place on one shard: either
// one erasure-coded piece of a snapshot blob (ECStore, K data of K+M
// total) or one full replica of it (ReplicatedStore, K=1). On a shard it
// is one buffer the store builds in place:
//
//	"HYFR2" | K u32 | M u32 | Index u32 | BlobLen u64 | payload | CRC-32C u32
//
// all little-endian, the header fragHeaderLen bytes, the payload
// ceil(BlobLen/K) bytes, the seal the Castagnoli CRC of everything
// before it. BlobLen is the pre-padding blob length reconstruction must
// trim back to, and the seal makes corruption detectable: a fragment
// that fails verification counts as erased, which the code tolerates up
// to its redundancy.
type fragment struct {
	K, M, Index int
	// BlobLen is the length of the whole encoded snapshot the fragment
	// belongs to.
	BlobLen int
	// Payload aliases the parsed buffer.
	Payload []byte
}

const (
	fragHeaderLen = len(fragMagic) + 3*4 + 8
	fragSealLen   = 4
)

// castagnoli selects CRC-32C, which amd64 and arm64 compute in hardware.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fragmentLen is the size of a fragment carrying payloadLen bytes.
func fragmentLen(payloadLen int) int { return fragHeaderLen + payloadLen + fragSealLen }

// putFragmentHeader writes the header of fragment index of a k+m group
// over a blobLen-byte blob into b[:fragHeaderLen].
func putFragmentHeader(b []byte, k, m, index, blobLen int) {
	n := copy(b, fragMagic)
	binary.LittleEndian.PutUint32(b[n:], uint32(k))
	binary.LittleEndian.PutUint32(b[n+4:], uint32(m))
	binary.LittleEndian.PutUint32(b[n+8:], uint32(index))
	binary.LittleEndian.PutUint64(b[n+12:], uint64(blobLen))
}

// sealFragment checksums header and payload of the fragment filling b
// into its trailer.
func sealFragment(b []byte) {
	body := b[:len(b)-fragSealLen]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, castagnoli))
}

// parseFragment decodes and verifies a fragment. ok is false for
// anything malformed, truncated or checksum-damaged — the caller treats
// such a shard as lost.
func parseFragment(b []byte) (fragment, bool) {
	if len(b) < fragmentLen(0) || string(b[:len(fragMagic)]) != fragMagic {
		return fragment{}, false
	}
	body := b[:len(b)-fragSealLen]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(body):]) {
		return fragment{}, false
	}
	h := b[len(fragMagic):]
	f := fragment{
		K:       int(binary.LittleEndian.Uint32(h)),
		M:       int(binary.LittleEndian.Uint32(h[4:])),
		Index:   int(binary.LittleEndian.Uint32(h[8:])),
		Payload: body[fragHeaderLen:],
	}
	// The payload of a K-way split is exactly ceil(BlobLen/K) bytes; the
	// first bound keeps the rounding from overflowing on a wild BlobLen.
	blobLen, k, size := binary.LittleEndian.Uint64(h[12:]), uint64(f.K), uint64(len(f.Payload))
	if k < 1 || blobLen > k*size || (blobLen+k-1)/k != size {
		return fragment{}, false
	}
	f.BlobLen = int(blobLen)
	return f, true
}

// decoder is a cursor over an encoded blob; the first error sticks and
// poisons every later read, so call sites stay linear.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or malformed field")
	}
}

func (d *decoder) literal(s string) bool {
	if d.err != nil || len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		d.fail()
		return false
	}
	d.b = d.b[len(s):]
	return true
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	out := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return out
}
