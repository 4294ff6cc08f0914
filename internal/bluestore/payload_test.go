package bluestore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
)

// TestReadChunkIntoMatchesReadChunk: ReadChunkInto moves the same bytes
// as ReadChunk and, with a nil buffer, charges the same device read
// without moving any.
func TestReadChunkIntoMatchesReadChunk(t *testing.T) {
	s := newStore(t, Config{})
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(3)).Read(data)
	if err := s.WriteChunk(key(1), 10_000, 8_000, data); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunk(key(2), 8192, 8192, nil); err != nil {
		t.Fatal(err)
	}
	dev := s.Device()
	delta := func(f func()) blockdev.Stats {
		before := dev.Snapshot()
		f()
		after := dev.Snapshot()
		return blockdev.Stats{ReadOps: after.ReadOps - before.ReadOps, ReadBytes: after.ReadBytes - before.ReadBytes}
	}
	want := delta(func() { _, _, _ = s.ReadChunk(key(1)) })

	dst := bytes.Repeat([]byte{0xEE}, 12_000)
	var size int64
	var payload bool
	var err error
	got := delta(func() { size, payload, err = s.ReadChunkInto(key(1), dst) })
	if err != nil || size != 10_000 || !payload {
		t.Fatalf("ReadChunkInto = %d, %v, %v", size, payload, err)
	}
	if !bytes.Equal(dst[:10_000], data) || dst[10_000] != 0xEE {
		t.Fatal("ReadChunkInto moved the wrong bytes")
	}
	if got != want {
		t.Fatalf("read into a buffer charged %+v, ReadChunk %+v", got, want)
	}
	got = delta(func() { size, payload, err = s.ReadChunkInto(key(1), nil) })
	if err != nil || size != 10_000 || !payload || got != want {
		t.Fatalf("nil-buffer read = %d, %v, %v charging %+v, want %+v", size, payload, err, got, want)
	}

	if _, _, err := s.ReadChunkInto(key(1), make([]byte, 9_999)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if size, payload, err := s.ReadChunkInto(key(2), dst); err != nil || size != 8192 || payload {
		t.Fatalf("accounting chunk = %d, %v, %v", size, payload, err)
	}
	if _, _, err := s.ReadChunkInto(key(99), dst); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("missing chunk: %v", err)
	}
	dev.Remove()
	for _, buf := range [][]byte{dst, nil} {
		if _, _, err := s.ReadChunkInto(key(1), buf); !errors.Is(err, blockdev.ErrRemoved) {
			t.Fatalf("removed device, buffer %v: %v", buf != nil, err)
		}
	}
}

// TestDroppedPayloadReleasesDeviceBlocks: overwriting or deleting a
// payload chunk trims its old extent, so the device's Used tracks the
// store's DataBytes instead of growing with every overwrite.
func TestDroppedPayloadReleasesDeviceBlocks(t *testing.T) {
	s := newStore(t, Config{})
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 5; round++ {
		for obj := uint32(0); obj < 3; obj++ {
			size := int64(5000 + 4096*int(obj))
			data := make([]byte, size)
			rng.Read(data)
			if err := s.WriteChunk(key(obj), size, size, data); err != nil {
				t.Fatal(err)
			}
		}
		if used, data := s.Device().Used(), s.DataBytes(); used != data {
			t.Fatalf("round %d: device Used %d, DataBytes %d", round, used, data)
		}
	}
	for obj := uint32(0); obj < 3; obj++ {
		if err := s.DeleteChunk(key(obj)); err != nil {
			t.Fatal(err)
		}
		if used, data := s.Device().Used(), s.DataBytes(); used != data {
			t.Fatalf("delete %d: device Used %d, DataBytes %d", obj, used, data)
		}
	}
	if s.Device().Used() != 0 {
		t.Fatalf("Used %d after deleting every chunk", s.Device().Used())
	}
}

// TestForkDropMasksBaseBlocks: on a fork, dropping a chunk inherited from
// the frozen parent masks its base blocks, and the parent keeps its bytes
// and its Used.
func TestForkDropMasksBaseBlocks(t *testing.T) {
	s := newTestStore(t)
	pay := bytes.Repeat([]byte{7}, 3*4096)
	for obj := uint32(0); obj < 2; obj++ {
		if err := s.WriteChunk(key(obj), int64(len(pay)), 4096, pay); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze()
	parentUsed := s.Device().Used()
	f, err := s.Fork(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteChunk(key(0), 4096, 4096, bytes.Repeat([]byte{9}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteChunk(key(1)); err != nil {
		t.Fatal(err)
	}
	if used, data := f.Device().Used(), f.DataBytes(); used != data || used != 4096 {
		t.Fatalf("fork: device Used %d, DataBytes %d, want 4096", used, data)
	}
	if s.Device().Used() != parentUsed {
		t.Fatalf("parent Used %d, was %d", s.Device().Used(), parentUsed)
	}
	for obj := uint32(0); obj < 2; obj++ {
		if _, got, err := s.ReadChunk(key(obj)); err != nil || !bytes.Equal(got, pay) {
			t.Fatalf("parent chunk %d changed: %v", obj, err)
		}
	}
}
