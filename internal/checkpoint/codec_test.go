package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"hydee/internal/transport"
)

// codecSnap builds a representative snapshot with mailbox traffic.
func codecSnap(rank, seq int) *Snapshot {
	return &Snapshot{
		Rank:        rank,
		Seq:         seq,
		TakenVT:     123456789,
		CkptCallIdx: 7,
		CollSeq:     42,
		AppState:    []byte{0x01, 0x02, 0xFF, 0x00, 0x7F},
		ProtState:   []byte("protocol table"),
		Mailbox: []*transport.Msg{
			{
				Src: 3, Dst: rank, Kind: transport.App, Tag: 9,
				Date: -5, Phase: 2, Inc: 1, IncSeen: 1,
				Epoch: seq - 1, WireLen: 4096, PiggyLen: 16,
				Data: []byte("payload"), SendVT: 1000, ArriveVT: 2000,
			},
			{Src: 5, Dst: rank, Kind: transport.App, Data: nil, ArriveVT: 2500},
		},
		ModelBytes: 1 << 20,
	}
}

// TestSnapshotCodecRoundTrip: every exported field, mailbox included,
// survives encode → decode.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := codecSnap(2, 3)
	blob, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed the snapshot:\n  in  %+v\n  out %+v", s, got)
	}
	// Empty-mailbox, empty-state snapshots round-trip too.
	min := &Snapshot{Rank: 1, Seq: 1}
	blob, err = EncodeSnapshot(min)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 1 || got.Seq != 1 || len(got.Mailbox) != 0 {
		t.Fatalf("minimal snapshot round trip: %+v", got)
	}
}

// TestSnapshotCodecDeterministic: encoding is a pure function — no
// encoder history, no map iteration.
func TestSnapshotCodecDeterministic(t *testing.T) {
	a, err := EncodeSnapshot(codecSnap(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSnapshot(codecSnap(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of equal snapshots differ")
	}
}

// TestSnapshotCodecRejectsCtl: control messages never belong in a
// mailbox capture; encoding one must fail loudly.
func TestSnapshotCodecRejectsCtl(t *testing.T) {
	s := codecSnap(0, 1)
	s.Mailbox[0].CtlBody = struct{ X int }{1}
	if _, err := EncodeSnapshot(s); err == nil {
		t.Fatal("snapshot with a control-message mailbox encoded without error")
	}
}

// TestSnapshotCodecRejectsDamage: garbage, truncation and trailing
// bytes all fail instead of misdecoding.
func TestSnapshotCodecRejectsDamage(t *testing.T) {
	blob, err := EncodeSnapshot(codecSnap(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot([]byte("not a snapshot")); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := DecodeSnapshot(blob[:len(blob)/2]); err == nil {
		t.Error("truncated blob decoded")
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// marshal renders f the way the redundant stores build a fragment in
// place: header, payload, seal.
func (f *fragment) marshal() []byte {
	b := make([]byte, fragmentLen(len(f.Payload)))
	putFragmentHeader(b, f.K, f.M, f.Index, f.BlobLen)
	copy(b[fragHeaderLen:], f.Payload)
	sealFragment(b)
	return b
}

// TestFragmentChecksum: a marshaled fragment parses back exactly, and
// every truncation and every single flipped byte is detected.
func TestFragmentChecksum(t *testing.T) {
	payload := []byte("fragment payload bytes")
	f := &fragment{K: 4, M: 2, Index: 3, BlobLen: 4*len(payload) - 1, Payload: payload}
	b := f.marshal()
	got, ok := parseFragment(b)
	if !ok {
		t.Fatal("clean fragment rejected")
	}
	if got.K != f.K || got.M != f.M || got.Index != f.Index || got.BlobLen != f.BlobLen || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("fragment fields changed: %+v vs %+v", got, f)
	}
	for i := range b {
		for _, bit := range []byte{0x01, 0x40, 0x80} {
			dam := append([]byte(nil), b...)
			dam[i] ^= bit
			if _, ok := parseFragment(dam); ok {
				t.Fatalf("byte %d flipped by %#x went undetected", i, bit)
			}
		}
	}
	for n := 0; n < len(b); n++ {
		if _, ok := parseFragment(b[:n]); ok {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(b))
		}
	}
	if _, ok := parseFragment(append(append([]byte(nil), b...), 0)); ok {
		t.Error("trailing byte accepted")
	}
	// Replica geometry (K=1: the payload is the whole blob) and the empty
	// blob parse too.
	for _, f := range []*fragment{
		{K: 1, M: 2, Index: 2, BlobLen: len(payload), Payload: payload},
		{K: 3, M: 1, Index: 0, BlobLen: 0, Payload: []byte{}},
	} {
		if got, ok := parseFragment(f.marshal()); !ok || got.BlobLen != f.BlobLen || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("fragment %+v did not round-trip (ok=%v, got %+v)", f, ok, got)
		}
	}
	// A sealed fragment whose payload length contradicts BlobLen/K is
	// malformed even though its checksum holds.
	if _, ok := parseFragment((&fragment{K: 4, M: 2, Index: 0, BlobLen: 999, Payload: payload}).marshal()); ok {
		t.Error("payload length inconsistent with BlobLen/K accepted")
	}
	if _, ok := parseFragment((&fragment{K: 0, M: 2, Index: 0, BlobLen: 0, Payload: nil}).marshal()); ok {
		t.Error("K = 0 accepted")
	}
}

// TestStaleFragmentFormatIsAbsent: a fragment in the previous container
// format — HYFR1 magic, varint header, FNV-64a trailer, built here by
// hand — parses as absent, so a store reopened over old fragments sees
// lost shards, never misdecoded ones.
func TestStaleFragmentFormatIsAbsent(t *testing.T) {
	payload := []byte("fragment payload bytes")
	b := []byte("HYFR1")
	b = binary.AppendUvarint(b, 4)   // K
	b = binary.AppendUvarint(b, 2)   // M
	b = binary.AppendUvarint(b, 3)   // Index
	b = binary.AppendUvarint(b, 999) // BlobLen
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	h := fnv.New64a()
	h.Write(b)
	b = h.Sum(b)
	if _, ok := parseFragment(b); ok {
		t.Fatal("HYFR1/FNV-64a fragment accepted by the HYFR2 parser")
	}
	// Even re-sealed with a valid CRC-32C the old magic is refused.
	b = append(b[:len(b)-8], 0, 0, 0, 0)
	sealFragment(b)
	if _, ok := parseFragment(b); ok {
		t.Fatal("HYFR1 magic accepted under a valid CRC-32C seal")
	}
}

// TestStripeLaysOutTheEncoding: striping a snapshot's segments over k
// regions of ceil(len/k) bytes yields exactly the EncodeSnapshot blob,
// zero-padded — whatever stale bytes the regions held.
func TestStripeLaysOutTheEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		s := randomSnap(rng, trial%5, 1+trial)
		blob, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		segs, total, err := snapshotSegments(s)
		if err != nil || total != len(blob) {
			t.Fatalf("segments total %d (err %v), blob is %d bytes", total, err, len(blob))
		}
		for k := 1; k <= 5; k++ {
			size := (total + k - 1) / k
			regions := make([][]byte, k)
			for j := range regions {
				regions[j] = bytes.Repeat([]byte{0xEE}, size)
			}
			stripe(regions, segs)
			want := append(append([]byte(nil), blob...), make([]byte, k*size-total)...)
			if got := bytes.Join(regions, nil); !bytes.Equal(got, want) {
				t.Fatalf("trial %d k=%d: striped regions differ from the padded blob", trial, k)
			}
		}
	}
}

// FuzzDecodeSnapshot: DecodeSnapshot parses what FileStore reads from
// disk, input from outside the program. It must never panic, and any blob
// it accepts must re-encode and decode to an equal snapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range []*Snapshot{codecSnap(2, 3), {Rank: 1, Seq: 1}} {
		blob, err := EncodeSnapshot(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		again, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		s2, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("re-encoding changed the snapshot:\n  first  %+v\n  second %+v", s, s2)
		}
	})
}
