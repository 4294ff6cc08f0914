// Package blockdev provides the virtual block devices that back the
// DataNodes' storage. A device is sparse and in-memory; it tracks
// iostat-style counters and can be "removed" at runtime, after which all
// I/O fails — the device-level fault the paper injects by deleting NVMe
// subsystems with nvmetcli.
package blockdev

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by device I/O.
var (
	ErrRemoved     = errors.New("blockdev: device removed")
	ErrOutOfRange  = errors.New("blockdev: I/O beyond device capacity")
	ErrInvalidArgs = errors.New("blockdev: invalid arguments")
	ErrFrozen      = errors.New("blockdev: device is frozen (snapshot parent)")
)

// Stats are cumulative I/O counters, in the spirit of /proc/diskstats.
type Stats struct {
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
	TrimOps    int64
}

// Device is a sparse in-memory block device. All methods are safe for
// concurrent use.
type Device struct {
	name      string
	capacity  int64
	blockSize int64

	mu      sync.Mutex
	blocks  map[int64][]byte
	stats   Stats
	removed bool

	// Copy-on-write fork state: base holds the frozen parent's blocks
	// (shared, never written through), masked marks base blocks hidden by
	// an overlay write or a trim. For root devices base is nil and every
	// access takes the short path. Invariants: masked keys are a subset of
	// base keys, and every overlay block whose key exists in base is
	// masked, so the visible set is blocks ∪ (base − masked).
	base   map[int64][]byte
	masked map[int64]bool
	frozen bool
}

// New creates a device. blockSize must divide capacity.
func New(name string, capacity, blockSize int64) (*Device, error) {
	if capacity <= 0 || blockSize <= 0 || capacity%blockSize != 0 {
		return nil, fmt.Errorf("%w: capacity=%d blockSize=%d", ErrInvalidArgs, capacity, blockSize)
	}
	return &Device{
		name:      name,
		capacity:  capacity,
		blockSize: blockSize,
		blocks:    map[int64][]byte{},
	}, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// BlockSize returns the allocation block size.
func (d *Device) BlockSize() int64 { return d.blockSize }

func (d *Device) checkRange(off int64, n int) error {
	if off < 0 || n < 0 {
		return ErrInvalidArgs
	}
	if off+int64(n) > d.capacity {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, d.capacity)
	}
	return nil
}

// ReadAt implements io.ReaderAt semantics over the sparse store;
// unwritten regions read as zero.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return 0, ErrRemoved
	}
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.stats.ReadOps++
	d.stats.ReadBytes += int64(len(p))
	for n := 0; n < len(p); {
		blk := (off + int64(n)) / d.blockSize
		inOff := (off + int64(n)) % d.blockSize
		chunk := int(d.blockSize - inOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		if b, ok := d.visibleLocked(blk); ok {
			copy(p[n:n+chunk], b[inOff:inOff+int64(chunk)])
		} else {
			clear(p[n : n+chunk])
		}
		n += chunk
	}
	return len(p), nil
}

// visibleLocked resolves a block through the overlay, then the unmasked
// base. Callers must hold d.mu.
func (d *Device) visibleLocked(blk int64) ([]byte, bool) {
	if b, ok := d.blocks[blk]; ok {
		return b, true
	}
	if d.base != nil && !d.masked[blk] {
		if b, ok := d.base[blk]; ok {
			return b, true
		}
	}
	return nil, false
}

// WriteAt implements io.WriterAt semantics, allocating blocks lazily. A
// block-aligned write over blocks that do not exist yet takes the slab
// path (writeFreshLocked); every other write copies block by block,
// pulling shared base blocks into the overlay first.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return 0, ErrRemoved
	}
	if d.frozen {
		return 0, ErrFrozen
	}
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.stats.WriteOps++
	d.stats.WriteBytes += int64(len(p))
	if off%d.blockSize == 0 && d.unallocatedLocked(off/d.blockSize, int64(len(p))) {
		d.writeFreshLocked(p, off/d.blockSize)
		return len(p), nil
	}
	for n := 0; n < len(p); {
		blk := (off + int64(n)) / d.blockSize
		inOff := (off + int64(n)) % d.blockSize
		chunk := int(d.blockSize - inOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		b, ok := d.blocks[blk]
		if !ok {
			b = make([]byte, d.blockSize)
			// Copy-on-write: pull the shared base block into the
			// overlay before mutating it.
			if d.base != nil && !d.masked[blk] {
				if pb, okBase := d.base[blk]; okBase {
					copy(b, pb)
				}
				d.maskLocked(blk)
			}
			d.blocks[blk] = b
		}
		copy(b[inOff:inOff+int64(chunk)], p[n:n+chunk])
		n += chunk
	}
	return len(p), nil
}

// unallocatedLocked reports whether none of the blocks covering n bytes
// from block first exists, in the overlay or in the base (masked or
// not). Callers must hold d.mu.
func (d *Device) unallocatedLocked(first, n int64) bool {
	for blk, last := first, first+(n+d.blockSize-1)/d.blockSize; blk < last; blk++ {
		if _, ok := d.blocks[blk]; ok {
			return false
		}
		if _, ok := d.base[blk]; ok {
			return false
		}
	}
	return true
}

// writeFreshLocked stores p as new blocks from block first, none of which
// exists yet. The whole blocks are cloned into one slab (no zeroing pass)
// and each is kept as a capacity-capped sub-slice of it, so a later write
// to one block cannot spill into its neighbour; a partial tail gets its
// own zeroed block. Callers must hold d.mu.
func (d *Device) writeFreshLocked(p []byte, first int64) {
	bs := int(d.blockSize)
	whole := len(p) / bs * bs
	slab := append([]byte(nil), p[:whole]...)
	blk := first
	for lo := 0; lo < whole; lo += bs {
		d.blocks[blk] = slab[lo : lo+bs : lo+bs]
		blk++
	}
	if whole < len(p) {
		b := make([]byte, bs)
		copy(b, p[whole:])
		d.blocks[blk] = b
	}
}

// maskLocked hides a base-resident block from future lookups. Callers
// must hold d.mu and have base != nil.
func (d *Device) maskLocked(blk int64) {
	if _, ok := d.base[blk]; !ok {
		return
	}
	if d.masked == nil {
		d.masked = map[int64]bool{}
	}
	d.masked[blk] = true
}

// Trim discards whole blocks covered by the range and counts a trim op.
func (d *Device) Trim(off, length int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return ErrRemoved
	}
	if d.frozen {
		return ErrFrozen
	}
	if err := d.checkRange(off, int(length)); err != nil {
		return err
	}
	d.stats.TrimOps++
	first := (off + d.blockSize - 1) / d.blockSize
	last := (off + length) / d.blockSize
	for blk := first; blk < last; blk++ {
		delete(d.blocks, blk)
		if d.base != nil {
			d.maskLocked(blk)
		}
	}
	return nil
}

// AccountRead records a read of n bytes without moving data, used by the
// accounting-only simulation path for large synthetic workloads.
func (d *Device) AccountRead(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return ErrRemoved
	}
	d.stats.ReadOps++
	d.stats.ReadBytes += n
	return nil
}

// AccountWrite records a write of n bytes without moving data.
func (d *Device) AccountWrite(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return ErrRemoved
	}
	if d.frozen {
		return ErrFrozen
	}
	d.stats.WriteOps++
	d.stats.WriteBytes += n
	return nil
}

// AccountWrites records n writes totalling bytes without moving data,
// one locked step for a whole bulk ingest.
func (d *Device) AccountWrites(bytes, n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return ErrRemoved
	}
	if d.frozen {
		return ErrFrozen
	}
	d.stats.WriteOps += n
	d.stats.WriteBytes += bytes
	return nil
}

// Used reports allocated bytes (whole blocks) across overlay and
// visible base.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := int64(len(d.blocks))
	if d.base != nil {
		n += int64(len(d.base) - len(d.masked))
	}
	return n * d.blockSize
}

// Remove simulates pulling the device: every subsequent operation fails
// with ErrRemoved. Contents are dropped. Removing a frozen snapshot
// parent would invalidate its forks, so that is a programming error.
func (d *Device) Remove() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen {
		panic("blockdev: Remove on frozen device " + d.name)
	}
	d.removed = true
	d.blocks = map[int64][]byte{}
	d.base = nil
	d.masked = nil
}

// Removed reports whether the device has been removed.
func (d *Device) Removed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.removed
}

// Snapshot returns a copy of the cumulative counters.
func (d *Device) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Freeze makes the device immutable so it can serve as a shared
// copy-on-write base for forks. All subsequent writes fail with
// ErrFrozen; reads keep working. Freeze is idempotent.
func (d *Device) Freeze() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frozen = true
}

// Fork returns a writable copy-on-write child of a frozen device. The
// child shares the parent's blocks until it writes or trims them and
// starts from a copy of the parent's counters, so iostat deltas line up
// with a fresh-built device that replayed the same history. Only
// single-level forking is supported: the parent must be a root device
// (not itself a fork).
func (d *Device) Fork() (*Device, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return nil, ErrRemoved
	}
	if !d.frozen {
		return nil, fmt.Errorf("blockdev: Fork of unfrozen device %s", d.name)
	}
	if d.base != nil {
		return nil, fmt.Errorf("blockdev: Fork of forked device %s", d.name)
	}
	return &Device{
		name:      d.name,
		capacity:  d.capacity,
		blockSize: d.blockSize,
		blocks:    map[int64][]byte{},
		base:      d.blocks,
		stats:     d.stats,
	}, nil
}
