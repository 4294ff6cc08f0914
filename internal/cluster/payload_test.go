package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// payloadCodes are the pool shapes the payload-path tests run over: one
// PG, so every object shares the acting set the tests fail OSDs in.
var payloadCodes = []PoolConfig{
	{Name: "rs", Plugin: "jerasure_reed_sol_van", K: 4, M: 2, PGNum: 1, StripeUnit: 4096, FailureDomain: "host"},
	{Name: "clay", Plugin: "clay", K: 4, M: 2, D: 5, PGNum: 1, StripeUnit: 4096, FailureDomain: "host"},
}

func payloadCluster(t *testing.T, pc PoolConfig) (*Cluster, *PG) {
	t.Helper()
	c := smallCluster(t, 8, 1, nil)
	p, err := c.CreatePool(pc)
	if err != nil {
		t.Fatal(err)
	}
	return c, p.PGs[0]
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// deviceTotals sums every OSD device's counters.
func deviceTotals(c *Cluster) blockdev.Stats {
	var t blockdev.Stats
	for _, o := range c.OSDs() {
		s := o.Store.Device().Snapshot()
		t.ReadOps += s.ReadOps
		t.WriteOps += s.WriteOps
		t.ReadBytes += s.ReadBytes
		t.WriteBytes += s.WriteBytes
		t.TrimOps += s.TrimOps
	}
	return t
}

func statsDelta(before, after blockdev.Stats) blockdev.Stats {
	return blockdev.Stats{
		ReadOps:    after.ReadOps - before.ReadOps,
		WriteOps:   after.WriteOps - before.WriteOps,
		ReadBytes:  after.ReadBytes - before.ReadBytes,
		WriteBytes: after.WriteBytes - before.WriteBytes,
		TrimOps:    after.TrimOps - before.TrimOps,
	}
}

// TestPayloadObjectSizesAcrossCodes writes objects from zero bytes (nil
// and empty) to 256 KiB on RS and Clay, then reads them healthy, degraded
// around a lost data shard, and again after payload recovery rebuilt that
// shard and two more shards are lost.
func TestPayloadObjectSizesAcrossCodes(t *testing.T) {
	sizes := []int{-1, 0, 1, 5000, 64 << 10, 256 << 10} // -1 writes nil
	for _, pc := range payloadCodes {
		t.Run(pc.Plugin, func(t *testing.T) {
			c, pg := payloadCluster(t, pc)
			want := map[string][]byte{}
			for i, size := range sizes {
				name := fmt.Sprintf("size-%d", size)
				var data []byte
				if size >= 0 {
					data = randomBytes(int64(i), size)
				}
				if err := c.WriteObject(pc.Name, name, data); err != nil {
					t.Fatalf("write %s: %v", name, err)
				}
				want[name] = data
			}
			readAll := func(phase string) {
				t.Helper()
				for name, data := range want {
					got, err := c.ReadObject(pc.Name, name)
					if err != nil {
						t.Fatalf("%s read %s: %v", phase, name, err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("%s read %s: %d bytes differ from the %d written", phase, name, len(got), len(data))
					}
				}
			}
			readAll("healthy")

			victim := pg.Acting[0] // data shard 0
			c.InjectOSDFailures(time.Second, victim)
			c.Sim().RunUntil(2 * time.Second)
			readAll("degraded")

			res, err := c.RecoverPool(pc.Name)
			if err != nil {
				t.Fatal(err)
			}
			if res.ObjectRepairs != len(sizes) {
				t.Fatalf("repaired %d objects, want %d", res.ObjectRepairs, len(sizes))
			}
			// The rebuilt shard 0 must hold real bytes: with two more
			// shards down, every read needs it.
			pool, _ := c.Pool(pc.Name)
			for name := range want {
				_, rec, _ := pool.findObject(name)
				key := pool.chunkKey(pg, rec, 0)
				if _, payload, err := c.OSD(pg.Acting[0]).Store.ReadChunkInto(key, nil); err != nil || !payload {
					t.Fatalf("%s: rebuilt shard 0 on osd.%d: payload %v, err %v", name, pg.Acting[0], payload, err)
				}
			}
			c.OSD(pg.Acting[1]).MarkDown()
			c.OSD(pg.Acting[4]).MarkDown()
			readAll("recovered")
		})
	}
}

// TestWriteObjectLeavesCallerDataAlone: the write path borrows the
// caller's buffer for full data shards and must never write to it (Clay
// encodes through an in-place decode).
func TestWriteObjectLeavesCallerDataAlone(t *testing.T) {
	for _, pc := range payloadCodes {
		t.Run(pc.Plugin, func(t *testing.T) {
			c, _ := payloadCluster(t, pc)
			for i, size := range []int{1, 16 << 10, 64 << 10, 100_000} {
				data := randomBytes(int64(i), size)
				orig := append([]byte(nil), data...)
				name := fmt.Sprintf("obj-%d", i)
				if err := c.WriteObject(pc.Name, name, data); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, orig) {
					t.Fatalf("%d-byte write changed the caller's buffer", size)
				}
				got, err := c.ReadObject(pc.Name, name)
				if err != nil || !bytes.Equal(got, orig) {
					t.Fatalf("%d-byte object read back wrong: %v", size, err)
				}
			}
		})
	}
}

// TestReadObjectReturnsOwnedBuffer: a read hands back a buffer the caller
// owns; scribbling over it changes nothing the next read sees.
func TestReadObjectReturnsOwnedBuffer(t *testing.T) {
	for _, pc := range payloadCodes {
		t.Run(pc.Plugin, func(t *testing.T) {
			c, pg := payloadCluster(t, pc)
			data := randomBytes(9, 100_000)
			if err := c.WriteObject(pc.Name, "obj", data); err != nil {
				t.Fatal(err)
			}
			for _, down := range []int{-1, 1} { // healthy, then degraded
				if down >= 0 {
					c.OSD(pg.Acting[down]).MarkDown()
				}
				got, err := c.ReadObject(pc.Name, "obj")
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					got[i] ^= 0xFF
				}
				again, err := c.ReadObject(pc.Name, "obj")
				if err != nil || !bytes.Equal(again, data) {
					t.Fatalf("read after scribbling over the last result differs (err %v)", err)
				}
			}
		})
	}
}

// TestDegradedReadsAgreeAndCharge: a healthy read, a read missing only a
// parity shard and a read missing a data shard return the same bytes, and
// each charges the devices exactly what the copying read path did.
func TestDegradedReadsAgreeAndCharge(t *testing.T) {
	// Device-counter deltas of each read of a 100,000-byte object (4 KiB
	// stripe unit: 28 KiB RS and Clay chunks). Every up shard costs one
	// full-chunk device read, whether its bytes are moved or only charged.
	want := map[string]map[string]blockdev.Stats{
		"jerasure_reed_sol_van": {
			"healthy":     {ReadOps: 6, ReadBytes: 172032},
			"parity-lost": {ReadOps: 5, ReadBytes: 143360},
			"data-lost":   {ReadOps: 5, ReadBytes: 143360},
			"both-lost":   {ReadOps: 4, ReadBytes: 114688},
		},
		"clay": {
			"healthy":     {ReadOps: 6, ReadBytes: 172032},
			"parity-lost": {ReadOps: 5, ReadBytes: 143360},
			"data-lost":   {ReadOps: 5, ReadBytes: 143360},
			"both-lost":   {ReadOps: 4, ReadBytes: 114688},
		},
	}
	for _, pc := range payloadCodes {
		t.Run(pc.Plugin, func(t *testing.T) {
			c, pg := payloadCluster(t, pc)
			data := randomBytes(11, 100_000)
			if err := c.WriteObject(pc.Name, "obj", data); err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				name string
				down int // acting-set position marked down before the read, or -1
			}{{"healthy", -1}, {"parity-lost", 5}, {"data-lost", 2}, {"both-lost", 4}} {
				if step.down >= 0 {
					// Each step adds a loss; revive the previous one so
					// parity-lost and data-lost lose exactly one shard.
					for _, o := range c.OSDs() {
						o.up = true
					}
					c.OSD(pg.Acting[step.down]).MarkDown()
					if step.name == "both-lost" {
						c.OSD(pg.Acting[2]).MarkDown()
					}
				}
				before := deviceTotals(c)
				got, err := c.ReadObject(pc.Name, "obj")
				if err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s: bytes differ", step.name)
				}
				if d := statsDelta(before, deviceTotals(c)); d != want[pc.Plugin][step.name] {
					t.Errorf("%s: device delta %+v, want %+v", step.name, d, want[pc.Plugin][step.name])
				}
			}
		})
	}
}

// TestPayloadPathAllocationBudgets pins the allocation-lean byte path: a
// healthy read allocates only the returned buffer, and a write allocates
// the shard headers, one slab per device write, and whatever the codec's
// Encode allocates on its own (nothing for RS; Clay's decode scratch).
func TestPayloadPathAllocationBudgets(t *testing.T) {
	for _, pc := range payloadCodes {
		t.Run(pc.Plugin, func(t *testing.T) {
			c, _ := payloadCluster(t, pc)
			data := randomBytes(13, 256<<10)
			write := func() {
				if err := c.WriteObject(pc.Name, "obj", data); err != nil {
					t.Fatal(err)
				}
			}
			write()

			pool, _ := c.Pool(pc.Name)
			code := pool.Code
			_, rec, _ := pool.findObject("obj")
			cs := rec.ChunkSize
			stripe := make([]byte, int64(code.N())*cs)
			copy(stripe, data)
			shards := make([][]byte, code.N())
			encode := testing.AllocsPerRun(50, func() {
				for i := range shards {
					shards[i] = shardOfStripe(stripe, i, cs)
				}
				if err := code.Encode(shards); err != nil {
					t.Fatal(err)
				}
			})

			if got := testing.AllocsPerRun(50, func() {
				if _, err := c.ReadObject(pc.Name, "obj"); err != nil {
					t.Fatal(err)
				}
			}); got != 1 {
				t.Errorf("healthy ReadObject: %v allocations, want 1", got)
			}
			budget := 1 + float64(code.N()) + encode
			if got := testing.AllocsPerRun(50, write); got > budget {
				t.Errorf("WriteObject: %v allocations, budget %v (Encode alone: %v)", got, budget, encode)
			}
		})
	}
}
