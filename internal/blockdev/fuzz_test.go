package blockdev

import (
	"bytes"
	"errors"
	"testing"
)

// flatDev is the reference model for FuzzDeviceVsFlat: a flat byte array,
// the set of allocated blocks, and the counters a Device should report.
type flatDev struct {
	data  []byte
	alloc []bool
	stats Stats
}

func newFlatDev(capacity, blockSize int64) *flatDev {
	return &flatDev{data: make([]byte, capacity), alloc: make([]bool, capacity/blockSize)}
}

func (f *flatDev) clone() *flatDev {
	return &flatDev{
		data:  append([]byte(nil), f.data...),
		alloc: append([]bool(nil), f.alloc...),
		stats: f.stats,
	}
}

func (f *flatDev) used(blockSize int64) int64 {
	var n int64
	for _, a := range f.alloc {
		if a {
			n++
		}
	}
	return n * blockSize
}

// fuzzOp decodes one operation from four fuzz bytes.
type fuzzOp struct {
	kind    byte // 0 write, 1 read, 2 trim, 3 freeze+fork
	off, ln int64
}

const (
	fuzzBlock    = 256
	fuzzCapacity = 32 * fuzzBlock
)

func decodeFuzzOp(b []byte) fuzzOp {
	op := fuzzOp{kind: b[0] % 4}
	off := (int64(b[1])<<8 | int64(b[2])) % fuzzCapacity
	if b[0]&0x10 != 0 {
		off -= off % fuzzBlock // block-aligned: the slab path's shape
	}
	ln := int64(b[3])
	if b[0]&0x20 != 0 {
		ln = int64(b[3]%8+1) * fuzzBlock // several whole blocks
		if b[0]&0x40 != 0 {
			ln += int64(b[3]) % fuzzBlock // plus a partial tail
		}
	}
	if off+ln > fuzzCapacity {
		ln = fuzzCapacity - off
	}
	op.off, op.ln = off, ln
	return op
}

// checkDevice compares a device's full contents, Used and counters with
// its model. The full read is itself counted, on both sides.
func checkDevice(t *testing.T, what string, d *Device, f *flatDev) {
	t.Helper()
	if got, want := d.Used(), f.used(fuzzBlock); got != want {
		t.Fatalf("%s: Used = %d, want %d", what, got, want)
	}
	if got := d.Snapshot(); got != f.stats {
		t.Fatalf("%s: stats = %+v, want %+v", what, got, f.stats)
	}
	all := make([]byte, fuzzCapacity)
	if _, err := d.ReadAt(all, 0); err != nil {
		t.Fatalf("%s: full read: %v", what, err)
	}
	f.stats.ReadOps++
	f.stats.ReadBytes += fuzzCapacity
	if !bytes.Equal(all, f.data) {
		t.Fatalf("%s: contents differ from the flat reference", what)
	}
}

// FuzzDeviceVsFlat runs random WriteAt/ReadAt/Trim/Freeze+Fork sequences,
// aligned and unaligned, against a flat []byte reference: every read, Used
// and the counters must match, and a frozen parent must never change,
// whatever its forks do.
func FuzzDeviceVsFlat(f *testing.F) {
	f.Add([]byte{0x20, 0, 0, 3, 0x31, 0x04, 0x00, 7, 1, 0, 10, 200})
	f.Add([]byte{0x70, 0, 0, 5, 3, 0, 0, 0, 0x70, 0x02, 0x00, 9, 2, 0, 0, 255, 0, 0x01, 0x80, 100})
	f.Add([]byte{0x30, 0x00, 0x00, 31, 3, 0, 0, 0, 0x00, 0x00, 0x10, 40, 0x30, 0x10, 0x00, 2, 3, 0, 0, 0, 0x62, 0x08, 0x00, 200, 1, 0, 0, 255})
	f.Add([]byte{0x22, 0x00, 0x00, 7, 0x70, 0x1f, 0x00, 8, 0x33, 0, 0, 0, 0x70, 0x05, 0x00, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		d, err := New("fuzz", fuzzCapacity, fuzzBlock)
		if err != nil {
			t.Fatal(err)
		}
		ref := newFlatDev(fuzzCapacity, fuzzBlock)
		var parent *Device // the frozen base once the first fork is taken
		var parentRef *flatDev
		cur, curRef := d, ref
		for i := 0; i+4 <= len(prog); i += 4 {
			op := decodeFuzzOp(prog[i : i+4])
			switch op.kind {
			case 0:
				p := make([]byte, op.ln)
				for j := range p {
					p[j] = byte(i) ^ byte(j*7+1)
				}
				if _, err := cur.WriteAt(p, op.off); err != nil {
					t.Fatalf("op %d WriteAt(%d, %d): %v", i/4, op.ln, op.off, err)
				}
				copy(curRef.data[op.off:], p)
				for blk := op.off / fuzzBlock; op.ln > 0 && blk*fuzzBlock < op.off+op.ln; blk++ {
					curRef.alloc[blk] = true
				}
				curRef.stats.WriteOps++
				curRef.stats.WriteBytes += op.ln
			case 1:
				p := bytes.Repeat([]byte{0xEE}, int(op.ln))
				if _, err := cur.ReadAt(p, op.off); err != nil {
					t.Fatalf("op %d ReadAt: %v", i/4, err)
				}
				if !bytes.Equal(p, curRef.data[op.off:op.off+op.ln]) {
					t.Fatalf("op %d ReadAt(%d, %d) differs from the flat reference", i/4, op.ln, op.off)
				}
				curRef.stats.ReadOps++
				curRef.stats.ReadBytes += op.ln
			case 2:
				if err := cur.Trim(op.off, op.ln); err != nil {
					t.Fatalf("op %d Trim: %v", i/4, err)
				}
				first := (op.off + fuzzBlock - 1) / fuzzBlock
				for blk := first; (blk+1)*fuzzBlock <= op.off+op.ln; blk++ {
					curRef.alloc[blk] = false
					clear(curRef.data[blk*fuzzBlock : (blk+1)*fuzzBlock])
				}
				curRef.stats.TrimOps++
			case 3:
				// Freeze the root and fork it; once frozen, each further
				// fork op starts a fresh sibling from the same parent.
				if parent == nil {
					d.Freeze()
					parent, parentRef = d, ref
				}
				child, err := parent.Fork()
				if err != nil {
					t.Fatalf("op %d Fork: %v", i/4, err)
				}
				cur, curRef = child, parentRef.clone()
			}
		}
		if parent != nil {
			if _, err := parent.WriteAt([]byte{1}, 0); !errors.Is(err, ErrFrozen) {
				t.Fatalf("write to frozen parent: %v", err)
			}
			if err := parent.Trim(0, fuzzBlock); !errors.Is(err, ErrFrozen) {
				t.Fatalf("trim of frozen parent: %v", err)
			}
		}
		checkDevice(t, "device", cur, curRef)
		if parent != nil && parent != cur {
			checkDevice(t, "frozen parent", parent, parentRef)
		}
	})
}

// TestFreshAlignedWriteAllocatesOnce pins the slab path: a block-aligned
// write over blocks that do not exist yet costs one allocation, however
// many blocks it spans.
func TestFreshAlignedWriteAllocatesOnce(t *testing.T) {
	const blocks, runs = 8, 100
	d, err := New("dev", (runs+2)*blocks*4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{0x5A}, blocks*4096)
	// Grow the block map to its final size first (maps keep their
	// buckets after deletes), so only the slab is left to allocate.
	if _, err := d.WriteAt(make([]byte, d.Capacity()), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(0, d.Capacity()); err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := d.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(p))
	})
	if allocs != 1 {
		t.Fatalf("fresh aligned %d-block write: %v allocations, want 1", blocks, allocs)
	}
	got := make([]byte, len(p))
	if _, err := d.ReadAt(got, off-int64(len(p))); err != nil || !bytes.Equal(got, p) {
		t.Fatalf("slab write read back wrong (err %v)", err)
	}
}
