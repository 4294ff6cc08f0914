package bluestore

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blockdev"
)

func newStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	dev, err := blockdev.New("nvme0n1", 1<<30, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// key builds a test chunk key in pool 1, PG 0, shard 0. Its NameLen is
// the length of the key's own rendering, standing in for the Ceph name.
func key(object uint32) ChunkKey {
	k := ChunkKey{Pool: 1, Object: object}
	k.NameLen = uint16(len(k.String()))
	return k
}

func TestPayloadRoundTrip(t *testing.T) {
	s := newStore(t, Config{})
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := s.WriteChunk(key(1), 10_000, 8_000, data); err != nil {
		t.Fatal(err)
	}
	size, got, err := s.ReadChunk(key(1))
	if err != nil {
		t.Fatal(err)
	}
	if size != 10_000 || !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestAccountingOnlyMode(t *testing.T) {
	s := newStore(t, Config{})
	if err := s.WriteChunk(key(0), 1<<20, 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	size, payload, err := s.ReadChunk(key(0))
	if err != nil {
		t.Fatal(err)
	}
	if size != 1<<20 || payload != nil {
		t.Fatal("accounting-only read should return size and nil payload")
	}
	st := s.Device().Snapshot()
	if st.WriteBytes != 1<<20 || st.ReadBytes != 1<<20 {
		t.Fatalf("device counters: %+v", st)
	}
}

func TestMinAllocRounding(t *testing.T) {
	s := newStore(t, Config{MinAllocSize: 65536})
	if err := s.WriteChunk(key(0), 100, 100, nil); err != nil {
		t.Fatal(err)
	}
	if s.DataBytes() != 65536 {
		t.Fatalf("DataBytes = %d, want 65536", s.DataBytes())
	}
}

func TestUsedBytesGrowsWithMetadata(t *testing.T) {
	s := newStore(t, Config{ECMetaFraction: 0.25, KVSpaceAmp: 1})
	if err := s.WriteChunk(key(0), 1<<20, 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	used := s.UsedBytes()
	if used <= 1<<20 {
		t.Fatalf("UsedBytes = %d, must exceed data bytes", used)
	}
	// EC metadata should be ~25% of the object share.
	if s.MetaBytes() < 1<<18 {
		t.Fatalf("MetaBytes = %d, want >= %d", s.MetaBytes(), 1<<18)
	}
}

func TestDeleteChunkReleasesEverything(t *testing.T) {
	s := newStore(t, Config{ECMetaFraction: 0.26})
	if err := s.WriteChunk(key(0), 4096, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteChunk(key(0)); err != nil {
		t.Fatal(err)
	}
	if s.DataBytes() != 0 {
		t.Fatalf("DataBytes = %d after delete", s.DataBytes())
	}
	if s.Chunks() != 0 {
		t.Fatal("chunk still listed")
	}
	if s.MetaBytes() != 0 {
		t.Fatalf("MetaBytes = %d after delete", s.MetaBytes())
	}
	if err := s.DeleteChunk(key(0)); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	s := newStore(t, Config{})
	_ = s.WriteChunk(key(0), 8192, 8192, nil)
	_ = s.WriteChunk(key(0), 4096, 4096, nil)
	if s.DataBytes() != 4096 {
		t.Fatalf("DataBytes = %d after overwrite", s.DataBytes())
	}
	if s.Chunks() != 1 {
		t.Fatal("chunk count wrong")
	}
}

func TestReadMissingChunk(t *testing.T) {
	s := newStore(t, Config{})
	if _, _, err := s.ReadChunk(key(99)); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("got %v", err)
	}
	if err := s.ReadSubChunks(key(99), 10); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("got %v", err)
	}
}

func TestReadSubChunksAccounts(t *testing.T) {
	s := newStore(t, Config{})
	_ = s.WriteChunk(key(0), 81*100, 81*100, nil)
	if err := s.ReadSubChunks(key(0), 27*100); err != nil {
		t.Fatal(err)
	}
	if s.Device().Snapshot().ReadBytes != 27*100 {
		t.Fatal("sub-chunk read not accounted")
	}
}

func TestWriteFailsOnRemovedDevice(t *testing.T) {
	s := newStore(t, Config{})
	s.Device().Remove()
	if err := s.WriteChunk(key(0), 100, 100, nil); err == nil {
		t.Fatal("write to removed device succeeded")
	}
}

func TestCacheProfileSchemes(t *testing.T) {
	mk := func(cache CacheConfig) *Store {
		s := newStore(t, Config{CacheBytes: 1 << 20, Cache: cache, ECMetaFraction: 0.26})
		// Populate: KV-need ends up well above 1 MiB so ratios matter.
		for i := 0; i < 50; i++ {
			_ = s.WriteChunk(key(uint32(i)), 1<<20, 1<<20, nil)
		}
		s.SetDataWorkingSet(8 << 20)
		return s
	}
	kvOpt := mk(CacheKVOptimized)
	dataOpt := mk(CacheDataOptimized)
	auto := mk(CacheAutotune)

	_, kvHitA, dataHitA := kvOpt.AccessProfile()
	_, kvHitB, dataHitB := dataOpt.AccessProfile()
	metaHitC, kvHitC, dataHitC := auto.AccessProfile()

	if kvHitA <= kvHitB {
		t.Fatalf("kv-optimized should have higher kv hits: %f vs %f", kvHitA, kvHitB)
	}
	if dataHitB <= dataHitA {
		t.Fatalf("data-optimized should have higher data hits: %f vs %f", dataHitB, dataHitA)
	}
	for _, h := range []float64{metaHitC, kvHitC, dataHitC} {
		if h < 0 || h > 1 {
			t.Fatalf("hit fraction out of range: %f", h)
		}
	}
}

func TestAutotuneWaterFillsSmallNeeds(t *testing.T) {
	s := newStore(t, Config{CacheBytes: 1 << 30, Cache: CacheAutotune})
	_ = s.WriteChunk(key(0), 4096, 4096, nil)
	s.SetDataWorkingSet(1 << 20)
	metaHit, kvHit, dataHit := s.AccessProfile()
	// Cache far exceeds all needs: everything should hit.
	if metaHit != 1 || kvHit != 1 || dataHit != 1 {
		t.Fatalf("hits = %f %f %f, want all 1", metaHit, kvHit, dataHit)
	}
}

func TestDeviceFull(t *testing.T) {
	dev, _ := blockdev.New("d", 1<<20, 4096)
	s, _ := Open(dev, Config{})
	big := make([]byte, 1<<20)
	if err := s.WriteChunk(key(0), 1<<20, 1<<20, big); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunk(key(1), 1<<20, 1<<20, big); err == nil {
		t.Fatal("second write should exceed capacity")
	}
}

func TestWAExampleMatchesFormulaPlusMeta(t *testing.T) {
	// A 64 MiB object under RS(12,9) with 4 MiB stripe unit: each chunk is
	// padded to 8 MiB; usage must be n*chunk + meta.
	s := newStore(t, Config{ECMetaFraction: 0.26, KVSpaceAmp: 1, MinAllocSize: 4096})
	object := int64(64 << 20)
	n := int64(12)
	chunk := int64(8 << 20)
	for i := int64(0); i < n; i++ {
		if err := s.WriteChunk(key(uint32(i)), chunk, object/n, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.DataBytes() != n*chunk {
		t.Fatalf("DataBytes = %d, want %d", s.DataBytes(), n*chunk)
	}
	wa := float64(s.UsedBytes()) / float64(object)
	if wa < 1.70 || wa > 1.85 {
		t.Fatalf("WA = %.3f, want ~1.76 (Table 3 calibration)", wa)
	}
}

func TestOpenValidation(t *testing.T) {
	dev, _ := blockdev.New("d", 4096, 4096)
	if _, err := Open(dev, Config{ECMetaFraction: -1}); err == nil {
		t.Fatal("negative ECMetaFraction accepted")
	}
}

func TestPayloadSizeMismatch(t *testing.T) {
	s := newStore(t, Config{})
	if err := s.WriteChunk(key(0), 100, 100, make([]byte, 50)); err == nil {
		t.Fatal("payload/size mismatch accepted")
	}
}

func TestCorruptAndScrubChunk(t *testing.T) {
	s := newStore(t, Config{})
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.WriteChunk(key(0), 8192, 8192, data); err != nil {
		t.Fatal(err)
	}
	ok, err := s.ScrubChunk(key(0))
	if err != nil || !ok {
		t.Fatalf("clean chunk scrub: ok=%v err=%v", ok, err)
	}
	if err := s.CorruptChunk(key(0)); err != nil {
		t.Fatal(err)
	}
	ok, err = s.ScrubChunk(key(0))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corrupted chunk passed scrub")
	}
	// Rewriting the chunk clears the corruption.
	if err := s.WriteChunk(key(0), 8192, 8192, data); err != nil {
		t.Fatal(err)
	}
	if ok, _ = s.ScrubChunk(key(0)); !ok {
		t.Fatal("rewritten chunk still dirty")
	}
	// Accounting-mode chunks use the marker path.
	if err := s.WriteChunk(key(2), 4096, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptChunk(key(2)); err != nil {
		t.Fatal(err)
	}
	if ok, _ = s.ScrubChunk(key(2)); ok {
		t.Fatal("accounting corruption not detected")
	}
	// Unknown chunks error.
	if err := s.CorruptChunk(key(99)); err == nil {
		t.Fatal("corrupting missing chunk accepted")
	}
	if _, err := s.ScrubChunk(key(99)); err == nil {
		t.Fatal("scrubbing missing chunk accepted")
	}
}

func TestAccessors(t *testing.T) {
	s := newStore(t, Config{MinAllocSize: 8192})
	if s.Config().MinAllocSize != 8192 {
		t.Fatal("Config not reflecting options")
	}
	if s.KV() == nil {
		t.Fatal("KV accessor nil")
	}
	if s.HasChunk(key(7)) {
		t.Fatal("phantom chunk")
	}
	if err := s.WriteChunk(key(7), 100, 100, nil); err != nil {
		t.Fatal(err)
	}
	if !s.HasChunk(key(7)) {
		t.Fatal("chunk missing")
	}
	size, err := s.ChunkSize(key(7))
	if err != nil || size != 100 {
		t.Fatalf("ChunkSize = %d, %v", size, err)
	}
	if _, err := s.ChunkSize(key(8)); err == nil {
		t.Fatal("missing chunk size accepted")
	}
}

func TestBulkMatchesPerChunkWrites(t *testing.T) {
	var chunks []BulkChunk
	for i := 0; i < 40; i++ {
		chunks = append(chunks, BulkChunk{Key: key(uint32(i)), Size: int64(1000 + 4096*i), Share: int64(900 * i)})
	}
	bulk := newStore(t, Config{})
	if err := bulk.WriteChunksBulk(chunks); err != nil {
		t.Fatal(err)
	}
	each := newStore(t, Config{})
	for _, ch := range chunks {
		if err := each.WriteChunk(ch.Key, ch.Size, ch.Share, nil); err != nil {
			t.Fatal(err)
		}
	}
	same := func(when string) {
		t.Helper()
		if bulk.Chunks() != each.Chunks() || bulk.DataBytes() != each.DataBytes() || bulk.MetaBytes() != each.MetaBytes() {
			t.Fatalf("%s: chunks/data/meta %d/%d/%d vs %d/%d/%d", when,
				bulk.Chunks(), bulk.DataBytes(), bulk.MetaBytes(), each.Chunks(), each.DataBytes(), each.MetaBytes())
		}
		if bulk.Device().Snapshot() != each.Device().Snapshot() {
			t.Fatalf("%s: device %+v vs %+v", when, bulk.Device().Snapshot(), each.Device().Snapshot())
		}
		if bulk.KV().WALBytes() != each.KV().WALBytes() || bulk.KV().LogicalBytes() != each.KV().LogicalBytes() {
			t.Fatalf("%s: KV WAL/logical %d/%d vs %d/%d", when,
				bulk.KV().WALBytes(), bulk.KV().LogicalBytes(), each.KV().WALBytes(), each.KV().LogicalBytes())
		}
	}
	same("after ingest")
	for _, s := range []*Store{bulk, each} {
		if err := s.WriteChunk(key(3), 8192, 100, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteChunk(key(7)); err != nil {
			t.Fatal(err)
		}
		if size, err := s.ChunkSize(key(5)); err != nil || size != chunks[5].Size {
			t.Fatalf("ChunkSize = %d, %v", size, err)
		}
	}
	same("after overwrite and delete")
}

func TestPayloadOnodeAccountingMatchesAccountingMode(t *testing.T) {
	// A payload chunk's onode is accounted in the KV store exactly like an
	// accounting-mode chunk's, through write, overwrite and delete.
	pay := newStore(t, Config{})
	acc := newStore(t, Config{})
	data := make([]byte, 4096)
	for _, step := range []func(s *Store, payload []byte) error{
		func(s *Store, p []byte) error { return s.WriteChunk(key(1), 4096, 4096, p) },
		func(s *Store, p []byte) error { return s.WriteChunk(key(1), 4096, 2048, p) },
		func(s *Store, p []byte) error { return s.WriteChunk(key(2), 4096, 2048, p) },
		func(s *Store, _ []byte) error { return s.DeleteChunk(key(1)) },
	} {
		if err := step(pay, data); err != nil {
			t.Fatal(err)
		}
		if err := step(acc, nil); err != nil {
			t.Fatal(err)
		}
		if pay.KV().WALBytes() != acc.KV().WALBytes() || pay.MetaBytes() != acc.MetaBytes() || pay.DataBytes() != acc.DataBytes() {
			t.Fatalf("WAL/meta/data %d/%d/%d vs %d/%d/%d", pay.KV().WALBytes(), pay.MetaBytes(), pay.DataBytes(),
				acc.KV().WALBytes(), acc.MetaBytes(), acc.DataBytes())
		}
	}
}

func TestMissingChunkErrorNamesKey(t *testing.T) {
	s := newStore(t, Config{})
	k := ChunkKey{Pool: 2, PG: 17, Object: 42, Shard: 3}
	_, _, err := s.ReadChunk(k)
	if !errors.Is(err, ErrNoSuchChunk) || !strings.HasSuffix(err.Error(), ": 2/17/42/s3") {
		t.Fatalf("error %q does not name 2/17/42/s3", err)
	}
}

func TestAccessProfileAllocFree(t *testing.T) {
	s := newStore(t, Config{CacheBytes: 1 << 20, Cache: CacheAutotune})
	_ = s.WriteChunk(key(0), 1<<20, 1<<20, nil)
	s.SetDataWorkingSet(1 << 20)
	if n := testing.AllocsPerRun(100, func() { s.AccessProfile() }); n != 0 {
		t.Fatalf("AccessProfile allocates %v times per call", n)
	}
}
