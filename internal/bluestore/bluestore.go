// Package bluestore models the Ceph BlueStore object store closely enough
// to reproduce the paper's two backend-sensitive results: the effect of the
// KV/metadata/data cache ratios on recovery time (Fig. 2a) and OSD-level
// write amplification (Table 3, §4.4).
//
// Each OSD owns one Store sitting on a virtual block device plus an
// embedded key-value store (the RocksDB stand-in). Chunk writes allocate
// min_alloc-rounded space, record onode/extent/checksum metadata in the KV
// store, and account the EC-related metadata whose aggregate size the
// paper observes but does not decompose (see Config.ECMetaFraction).
package bluestore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
)

// ErrNoSuchChunk is returned when reading or deleting an unknown chunk.
var ErrNoSuchChunk = errors.New("bluestore: no such chunk")

// CacheConfig is the BlueStore cache split of Table 2. Ratios should sum
// to 1; they are normalized defensively.
type CacheConfig struct {
	KVRatio   float64
	MetaRatio float64
	DataRatio float64
	Autotune  bool
}

// Named cache schemes from Table 2 of the paper.
var (
	CacheKVOptimized   = CacheConfig{KVRatio: 0.70, MetaRatio: 0.20, DataRatio: 0.10}
	CacheDataOptimized = CacheConfig{KVRatio: 0.20, MetaRatio: 0.20, DataRatio: 0.60}
	CacheAutotune      = CacheConfig{KVRatio: 0.45, MetaRatio: 0.45, DataRatio: 0.10, Autotune: true}
)

// Config parameterizes the store. Zero values take defaults.
type Config struct {
	// MinAllocSize is the allocation granularity (bluestore_min_alloc_size).
	MinAllocSize int64
	// BlobSize caps a single blob; one extent-map entry is recorded per
	// blob of a chunk write.
	BlobSize int64
	// CsumChunkSize is the checksum granularity; CsumEntryBytes are stored
	// per checksum chunk.
	CsumChunkSize  int64
	CsumEntryBytes int64
	// OnodeBytes is the serialized onode record size per chunk object.
	OnodeBytes int64
	// ExtentEntryBytes is the extent-map entry size per blob.
	ExtentEntryBytes int64
	// ECMetaFraction models the EC-related metadata the paper's S_meta
	// term aggregates (hash_info attributes, PG-log dup entries, LSM
	// overhead attributable to the object). It is charged as a fraction
	// of the chunk's logical share of the object and calibrated once
	// against Table 3 (see EXPERIMENTS.md).
	ECMetaFraction float64
	// KVSpaceAmp is the RocksDB space-amplification factor.
	KVSpaceAmp float64
	// CacheBytes is the total cache available to the three pools.
	CacheBytes int64
	Cache      CacheConfig
}

// DefaultConfig mirrors a Quincy-era SSD OSD.
func DefaultConfig() Config {
	return Config{
		MinAllocSize:     4096,
		BlobSize:         512 << 10,
		CsumChunkSize:    4096,
		CsumEntryBytes:   4,
		OnodeBytes:       520,
		ExtentEntryBytes: 48,
		ECMetaFraction:   0.26,
		KVSpaceAmp:       1.35,
		CacheBytes:       3 << 30,
		Cache:            CacheAutotune,
	}
}

// ChunkKey identifies one EC chunk: the ids of its pool, placement group,
// object and shard, plus NameLen, the byte length of the chunk's Ceph
// object name "<pool>/<pg>/<object>/s<shard>", which sizes its onode KV
// key. Keys and chunk records hold no pointers, so the chunk index costs
// the garbage collector nothing to scan however many chunks it holds.
type ChunkKey struct {
	Pool    uint32
	PG      uint32
	Object  uint32
	Shard   uint16
	NameLen uint16
}

// String renders the key as "pool/pg/object/sN" in ids, for errors.
func (k ChunkKey) String() string {
	return fmt.Sprintf("%d/%d/%d/s%d", k.Pool, k.PG, k.Object, k.Shard)
}

// onodeKeyLen is the length of the chunk's onode KV key, "o/<name>".
func (k ChunkKey) onodeKeyLen() int { return len("o/") + int(k.NameLen) }

type chunkInfo struct {
	size      int64
	share     int64  // logical object share used for EC metadata accounting
	offset    int64  // device placement (payload mode)
	checksum  uint32 // crc32 of the payload at write time (payload mode)
	hasData   bool
	corrupted bool // accounting-mode corruption marker
}

// Store is one OSD's object store.
type Store struct {
	mu  sync.Mutex
	cfg Config
	dev *blockdev.Device
	kv  *kvstore.DB

	chunks map[ChunkKey]chunkInfo

	// Copy-on-write fork state: base is the frozen parent's chunks map
	// (shared, read-only), baseDeleted tombstones base keys deleted or
	// shadowed by this fork. Invariant: chunks ∩ base ⊆ baseDeleted.
	// Nil base means a root store.
	base        map[ChunkKey]chunkInfo
	baseDeleted map[ChunkKey]bool
	frozen      bool

	dataAllocated int64
	nextOffset    int64 // bump allocator for payload placement

	// accountedMeta tracks extent-map and checksum record bytes, which are
	// accounted rather than materialized to keep large synthetic workloads
	// cheap.
	accountedMeta int64
	// ecMetaBytes is the accounted EC metadata (see Config.ECMetaFraction).
	ecMetaBytes int64

	dataWorkingSet int64 // set by the experiment runner; see SetDataWorkingSet
}

// normalizeConfig applies the zero-value defaults Open documents.
func normalizeConfig(cfg Config) (Config, error) {
	def := DefaultConfig()
	if cfg.MinAllocSize <= 0 {
		cfg.MinAllocSize = def.MinAllocSize
	}
	if cfg.BlobSize <= 0 {
		cfg.BlobSize = def.BlobSize
	}
	if cfg.CsumChunkSize <= 0 {
		cfg.CsumChunkSize = def.CsumChunkSize
	}
	if cfg.CsumEntryBytes <= 0 {
		cfg.CsumEntryBytes = def.CsumEntryBytes
	}
	if cfg.OnodeBytes <= 0 {
		cfg.OnodeBytes = def.OnodeBytes
	}
	if cfg.ExtentEntryBytes <= 0 {
		cfg.ExtentEntryBytes = def.ExtentEntryBytes
	}
	if cfg.KVSpaceAmp <= 0 {
		cfg.KVSpaceAmp = def.KVSpaceAmp
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	if cfg.Cache == (CacheConfig{}) {
		cfg.Cache = def.Cache
	}
	if cfg.ECMetaFraction < 0 {
		return cfg, fmt.Errorf("bluestore: negative ECMetaFraction")
	}
	return cfg, nil
}

// Open creates a store over a device.
func Open(dev *blockdev.Device, cfg Config) (*Store, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	return &Store{
		cfg:    cfg,
		dev:    dev,
		kv:     kvstore.Open(cfg.KVSpaceAmp),
		chunks: map[ChunkKey]chunkInfo{},
	}, nil
}

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

func roundUp(v, to int64) int64 { return (v + to - 1) / to * to }

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// lookupLocked resolves a chunk through the overlay, then the
// untombstoned base. Callers must hold s.mu.
func (s *Store) lookupLocked(key ChunkKey) (chunkInfo, bool) {
	if info, ok := s.chunks[key]; ok {
		return info, true
	}
	if s.base != nil && !s.baseDeleted[key] {
		if info, ok := s.base[key]; ok {
			return info, true
		}
	}
	return chunkInfo{}, false
}

// setLocked writes a chunk record into the overlay, tombstoning any
// base entry of the same key. Callers must hold s.mu.
func (s *Store) setLocked(key ChunkKey, info chunkInfo) {
	s.chunks[key] = info
	s.tombstoneLocked(key)
}

// tombstoneLocked hides a base-resident key from future lookups.
// Callers must hold s.mu.
func (s *Store) tombstoneLocked(key ChunkKey) {
	if s.base == nil {
		return
	}
	if _, ok := s.base[key]; !ok {
		return
	}
	if s.baseDeleted == nil {
		s.baseDeleted = map[ChunkKey]bool{}
	}
	s.baseDeleted[key] = true
}

// chunkCountLocked is the number of visible chunks. Callers must hold
// s.mu.
func (s *Store) chunkCountLocked() int {
	n := len(s.chunks)
	if s.base != nil {
		n += len(s.base) - len(s.baseDeleted)
	}
	return n
}

func (s *Store) mutableLocked(op string) error {
	if s.frozen {
		return fmt.Errorf("bluestore: %s on frozen store (snapshot parent)", op)
	}
	return nil
}

// WriteChunk stores an EC chunk. size is the padded chunk size on disk;
// objectShare is the chunk's logical share of the client object
// (S_object / n), which drives EC metadata accounting; payload, if
// non-nil, carries real bytes (len(payload) must equal size), otherwise
// the write is accounting-only.
func (s *Store) WriteChunk(key ChunkKey, size, objectShare int64, payload []byte) error {
	if size < 0 || objectShare < 0 {
		return fmt.Errorf("bluestore: negative sizes")
	}
	if payload != nil && int64(len(payload)) != size {
		return fmt.Errorf("bluestore: payload length %d != size %d", len(payload), size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutableLocked("WriteChunk"); err != nil {
		return err
	}
	if old, ok := s.lookupLocked(key); ok {
		s.dropLocked(key, old)
	}
	info := chunkInfo{size: size, share: objectShare}
	allocated := roundUp(size, s.cfg.MinAllocSize)
	if payload != nil {
		info.checksum = crc32.ChecksumIEEE(payload)
		info.offset = s.nextOffset
		if info.offset+allocated > s.dev.Capacity() {
			return fmt.Errorf("bluestore: device full (%d + %d > %d)", info.offset, allocated, s.dev.Capacity())
		}
		if _, err := s.dev.WriteAt(payload, info.offset); err != nil {
			return fmt.Errorf("bluestore: %w", err)
		}
		s.nextOffset = info.offset + allocated
		info.hasData = true
	} else {
		if err := s.dev.AccountWrite(size); err != nil {
			return fmt.Errorf("bluestore: %w", err)
		}
	}
	s.dataAllocated += allocated
	// The onode record (placement, sizes) lives in the chunk index; the
	// KV store accounts the identical entry without materializing it.
	s.kv.PutAccounted(key.onodeKeyLen(), int(s.cfg.OnodeBytes))
	s.accountedMeta += s.metaRecordBytes(size)
	s.ecMetaBytes += int64(s.cfg.ECMetaFraction * float64(objectShare))
	s.setLocked(key, info)
	return nil
}

// BulkChunk is one accounting-mode chunk of a bulk ingest.
type BulkChunk struct {
	Key   ChunkKey
	Size  int64 // padded chunk size on disk
	Share int64 // logical object share (S_object / n)
}

// WriteChunksBulk ingests accounting-mode chunks in one locked pass:
// byte-for-byte the same device, KV and metadata accounting as calling
// WriteChunk(key, size, share, nil) per chunk, but with one device and
// one KV accounting call for the whole batch.
func (s *Store) WriteChunksBulk(chunks []BulkChunk) error {
	var devBytes, keyBytes, allocSum, metaSum, ecSum int64
	for i := range chunks {
		ch := &chunks[i]
		if ch.Size < 0 || ch.Share < 0 {
			return fmt.Errorf("bluestore: negative sizes")
		}
		devBytes += ch.Size
		keyBytes += int64(ch.Key.onodeKeyLen())
		allocSum += roundUp(ch.Size, s.cfg.MinAllocSize)
		metaSum += s.metaRecordBytes(ch.Size)
		ecSum += int64(s.cfg.ECMetaFraction * float64(ch.Share))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutableLocked("WriteChunksBulk"); err != nil {
		return err
	}
	if err := s.dev.AccountWrites(devBytes, int64(len(chunks))); err != nil {
		return fmt.Errorf("bluestore: %w", err)
	}
	s.kv.PutAccountedN(keyBytes, int64(len(chunks))*s.cfg.OnodeBytes, int64(len(chunks)))
	s.dataAllocated += allocSum
	s.accountedMeta += metaSum
	s.ecMetaBytes += ecSum
	if len(s.chunks) == 0 {
		s.chunks = make(map[ChunkKey]chunkInfo, len(chunks))
	}
	for _, ch := range chunks {
		if old, ok := s.lookupLocked(ch.Key); ok {
			s.dropLocked(ch.Key, old)
		}
		s.setLocked(ch.Key, chunkInfo{size: ch.Size, share: ch.Share})
	}
	return nil
}

// metaRecordBytes is the extent-map plus checksum record size for a chunk.
func (s *Store) metaRecordBytes(size int64) int64 {
	extents := ceilDiv(size, s.cfg.BlobSize)
	csums := ceilDiv(size, s.cfg.CsumChunkSize)
	return extents*s.cfg.ExtentEntryBytes + csums*s.cfg.CsumEntryBytes
}

// find looks a chunk up under the lock.
func (s *Store) find(key ChunkKey) (chunkInfo, error) {
	s.mu.Lock()
	info, ok := s.lookupLocked(key)
	s.mu.Unlock()
	if !ok {
		return chunkInfo{}, fmt.Errorf("%w: %v", ErrNoSuchChunk, key)
	}
	return info, nil
}

// ReadChunk returns the chunk size and, for payload-mode chunks, its
// bytes in a fresh buffer. Device read counters are bumped either way.
func (s *Store) ReadChunk(key ChunkKey) (int64, []byte, error) {
	info, err := s.find(key)
	if err != nil {
		return 0, nil, err
	}
	var buf []byte
	if info.hasData {
		buf = make([]byte, info.size)
	}
	if err := s.read(info, buf); err != nil {
		return 0, nil, err
	}
	return info.size, buf, nil
}

// ReadChunkInto reads a payload chunk's bytes into dst[:size] and
// reports the chunk size and whether the chunk holds payload. With dst
// nil, or for an accounting-mode chunk, it charges the same device read
// (same counters, same ErrRemoved) without moving bytes. A non-nil dst
// shorter than a payload chunk is an error.
func (s *Store) ReadChunkInto(key ChunkKey, dst []byte) (size int64, payload bool, err error) {
	info, err := s.find(key)
	if err != nil {
		return 0, false, err
	}
	if info.hasData && dst != nil && int64(len(dst)) < info.size {
		return 0, false, fmt.Errorf("bluestore: read buffer of %d bytes for %d-byte chunk %v", len(dst), info.size, key)
	}
	if err := s.read(info, dst); err != nil {
		return 0, false, err
	}
	return info.size, info.hasData, nil
}

// read charges one device read of the chunk, moving its bytes into dst
// when dst is non-nil and the chunk holds payload.
func (s *Store) read(info chunkInfo, dst []byte) error {
	var err error
	if info.hasData && dst != nil {
		_, err = s.dev.ReadAt(dst[:info.size], info.offset)
	} else {
		err = s.dev.AccountRead(info.size)
	}
	if err != nil {
		return fmt.Errorf("bluestore: %w", err)
	}
	return nil
}

// ReadSubChunks accounts a partial read of the chunk (count sub-chunk
// reads totalling bytes), used by Clay repair I/O accounting.
func (s *Store) ReadSubChunks(key ChunkKey, bytes int64) error {
	if _, err := s.find(key); err != nil {
		return err
	}
	return s.dev.AccountRead(bytes)
}

// CorruptChunk simulates silent data corruption (bit rot) in a stored
// chunk: payload-mode chunks get their on-device bytes flipped, and
// accounting-mode chunks are marked corrupt. The stored checksum is left
// intact, so only a scrub can tell.
func (s *Store) CorruptChunk(key ChunkKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutableLocked("CorruptChunk"); err != nil {
		return err
	}
	info, ok := s.lookupLocked(key)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchChunk, key)
	}
	info.corrupted = true
	s.setLocked(key, info)
	if info.hasData {
		// Flip a byte somewhere in the middle of the chunk.
		pos := info.offset + info.size/2
		buf := make([]byte, 1)
		if _, err := s.dev.ReadAt(buf, pos); err != nil {
			return err
		}
		buf[0] ^= 0xFF
		if _, err := s.dev.WriteAt(buf, pos); err != nil {
			return err
		}
	}
	return nil
}

// ScrubChunk deep-scrubs a chunk: payload-mode chunks are re-read and
// their crc32 compared against the write-time checksum; accounting-mode
// chunks report their corruption marker. It returns true when the chunk
// is consistent.
func (s *Store) ScrubChunk(key ChunkKey) (bool, error) {
	info, err := s.find(key)
	if err != nil {
		return false, err
	}
	if !info.hasData {
		return !info.corrupted, nil
	}
	_, payload, err := s.ReadChunk(key)
	if err != nil {
		return false, err
	}
	return crc32.ChecksumIEEE(payload) == info.checksum, nil
}

// HasChunk reports whether the chunk exists.
func (s *Store) HasChunk(key ChunkKey) bool {
	_, err := s.find(key)
	return err == nil
}

// ChunkSize returns the stored (padded) size of a chunk.
func (s *Store) ChunkSize(key ChunkKey) (int64, error) {
	info, err := s.find(key)
	return info.size, err
}

// DeleteChunk removes a chunk and its metadata.
func (s *Store) DeleteChunk(key ChunkKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutableLocked("DeleteChunk"); err != nil {
		return err
	}
	info, ok := s.lookupLocked(key)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchChunk, key)
	}
	s.dropLocked(key, info)
	return nil
}

// dropLocked releases a chunk's space, metadata and index entry. A
// payload chunk's min_alloc-rounded extent is trimmed from the device (on
// a fork that masks the shared base blocks); the trim can only fail on a
// removed device, whose contents are gone anyway. Callers must hold s.mu.
func (s *Store) dropLocked(key ChunkKey, info chunkInfo) {
	allocated := roundUp(info.size, s.cfg.MinAllocSize)
	if info.hasData {
		_ = s.dev.Trim(info.offset, allocated)
	}
	s.dataAllocated -= allocated
	s.accountedMeta -= s.metaRecordBytes(info.size)
	s.ecMetaBytes -= int64(s.cfg.ECMetaFraction * float64(info.share))
	s.kv.DeleteAccounted(key.onodeKeyLen(), int(s.cfg.OnodeBytes))
	delete(s.chunks, key)
	s.tombstoneLocked(key)
}

// Chunks returns the number of stored chunks.
func (s *Store) Chunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunkCountLocked()
}

// DataBytes is the allocated payload space (min_alloc rounded).
func (s *Store) DataBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dataAllocated
}

// MetaBytes is the KV footprint plus the accounted extent/checksum
// records (both LSM-resident, so space-amplified) plus the EC metadata
// aggregate, which is calibrated directly against Table 3 and therefore
// not amplified again.
func (s *Store) MetaBytes() int64 {
	s.mu.Lock()
	acc := s.accountedMeta
	ec := s.ecMetaBytes
	s.mu.Unlock()
	return s.kv.Footprint() + int64(s.cfg.KVSpaceAmp*float64(acc)) + ec
}

// UsedBytes is the OSD-level storage usage the paper measures for its
// Actual WA Factor: data allocation plus metadata footprint.
func (s *Store) UsedBytes() int64 {
	return s.DataBytes() + s.MetaBytes()
}

// SetDataWorkingSet tells the cache model how much data is hot (e.g. the
// bytes a recovery will read on this OSD).
func (s *Store) SetDataWorkingSet(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		panic("bluestore: SetDataWorkingSet on frozen store")
	}
	s.dataWorkingSet = bytes
}

// Freeze makes the store and its device and KV store immutable so they
// can serve as shared copy-on-write bases for Fork. Idempotent.
func (s *Store) Freeze() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frozen = true
	s.kv.Freeze()
	s.dev.Freeze()
}

// Fork returns a writable copy-on-write child of a frozen store. cfg may
// change only recovery-side knobs (cache scheme and size); every field
// that shaped the on-disk layout during populate must match the parent,
// because the child shares the parent's chunk map, device blocks and KV
// entries and starts from a copy of its accounting. Only single-level
// forking is supported.
func (s *Store) Fork(cfg Config) (*Store, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.frozen {
		return nil, errors.New("bluestore: Fork of unfrozen store")
	}
	if s.base != nil {
		return nil, errors.New("bluestore: Fork of forked store")
	}
	layout := func(c Config) Config {
		c.Cache = CacheConfig{}
		c.CacheBytes = 0
		return c
	}
	if layout(cfg) != layout(s.cfg) {
		return nil, fmt.Errorf("bluestore: Fork config changes layout-relevant fields (%+v vs %+v)", layout(cfg), layout(s.cfg))
	}
	dev, err := s.dev.Fork()
	if err != nil {
		return nil, err
	}
	kv, err := s.kv.Fork()
	if err != nil {
		return nil, err
	}
	return &Store{
		cfg:            cfg,
		dev:            dev,
		kv:             kv,
		chunks:         map[ChunkKey]chunkInfo{},
		base:           s.chunks,
		dataAllocated:  s.dataAllocated,
		nextOffset:     s.nextOffset,
		accountedMeta:  s.accountedMeta,
		ecMetaBytes:    s.ecMetaBytes,
		dataWorkingSet: s.dataWorkingSet,
	}, nil
}

// AccessProfile returns the modeled cache hit fractions for onode/meta
// lookups, KV reads, and data reads, under the configured cache scheme.
// Autotune performs a water-filling allocation across the three pools in
// proportion to their demand, which is what BlueStore's cache autotuner
// converges to.
func (s *Store) AccessProfile() (metaHit, kvHit, dataHit float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kvNeed := float64(s.kv.Footprint()) + s.cfg.KVSpaceAmp*float64(s.accountedMeta) + float64(s.ecMetaBytes)
	metaNeed := float64(int64(s.chunkCountLocked()) * s.cfg.OnodeBytes)
	dataNeed := float64(s.dataWorkingSet)
	total := float64(s.cfg.CacheBytes)

	var kvCache, metaCache, dataCache float64
	if s.cfg.Cache.Autotune {
		kvCache, metaCache, dataCache = waterFill(total, [3]float64{kvNeed, metaNeed, dataNeed})
	} else {
		rk, rm, rd := s.cfg.Cache.KVRatio, s.cfg.Cache.MetaRatio, s.cfg.Cache.DataRatio
		sum := rk + rm + rd
		if sum <= 0 {
			sum, rk, rm, rd = 1, 1.0/3, 1.0/3, 1.0/3
		}
		kvCache = total * rk / sum
		metaCache = total * rm / sum
		dataCache = total * rd / sum
	}
	hit := func(cache, need float64) float64 {
		if need <= 0 {
			return 1
		}
		f := cache / need
		if f > 1 {
			return 1
		}
		return f
	}
	return hit(metaCache, metaNeed), hit(kvCache, kvNeed), hit(dataCache, dataNeed)
}

// waterFill splits cache across pools proportionally to demand, never
// granting a pool more than it needs, and redistributing the surplus.
func waterFill(total float64, needs [3]float64) (a, b, c float64) {
	var grant [3]float64
	remaining := total
	for iter := 0; iter < 4; iter++ {
		sum := 0.0
		for _, n := range needs {
			sum += n
		}
		if sum <= 0 || remaining <= 0 {
			break
		}
		for i, n := range needs {
			if n <= 0 {
				continue
			}
			share := remaining * n / sum
			if share > n {
				share = n
			}
			grant[i] += share
			needs[i] -= share
		}
		granted := 0.0
		for _, g := range grant {
			granted += g
		}
		remaining = total - granted
	}
	return grant[0], grant[1], grant[2]
}

// KV exposes the embedded KV store (for tests and the logger).
func (s *Store) KV() *kvstore.DB { return s.kv }

// Device exposes the backing device.
func (s *Store) Device() *blockdev.Device { return s.dev }
