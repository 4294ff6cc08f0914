package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestChunkNameLenMatchesFormattedName(t *testing.T) {
	long := strings.Repeat("x", 300)
	pools := []string{"", "p", "ecpool", long}
	objects := []string{"", "o", "obj-000042", long + "/with/slashes"}
	pgs := []int{0, 9, 10, 99, 100, 1023}
	shards := []int{0, 9, 10, 255}
	for _, pool := range pools {
		for _, object := range objects {
			for _, pg := range pgs {
				for _, shard := range shards {
					want := len(fmt.Sprintf("%s/%d/%s/s%d", pool, pg, object, shard))
					if got := chunkNameLen(pool, pg, object, shard); got != want {
						t.Fatalf("chunkNameLen(%d-byte pool, pg %d, %d-byte object, shard %d) = %d, want %d",
							len(pool), pg, len(object), shard, got, want)
					}
					p := &Pool{Name: pool}
					k := p.chunkKey(&PG{ID: pg}, &ObjectRecord{Name: object}, shard)
					if int(k.NameLen) != want {
						t.Fatalf("chunkKey NameLen = %d, want %d", k.NameLen, want)
					}
				}
			}
		}
	}
}

// onePGPool creates an RS(4,2) pool with a single PG, so every object's
// chunk names are "<pool>/0/<object>/s<0..5>".
func onePGPool(t *testing.T, c *Cluster, name string) (*Pool, error) {
	t.Helper()
	return c.CreatePool(PoolConfig{
		Name: name, Plugin: "jerasure_reed_sol_van",
		K: 4, M: 2, PGNum: 1, StripeUnit: 4096, FailureDomain: "host",
	})
}

func TestNamesOverflowingChunkKeyAreRejected(t *testing.T) {
	c := smallCluster(t, 8, 1, nil)
	if _, err := onePGPool(t, c, strings.Repeat("p", 1<<16)); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("CreatePool with a 64 KiB name: %v, want ErrNameTooLong", err)
	}
	if _, err := onePGPool(t, c, "p"); err != nil {
		t.Fatal(err)
	}
	// "p/0/<object>/s5" is 65535 bytes long for the longest name that fits.
	const maxObject = 1<<16 - 1 - len("p/0//s5")
	fits := strings.Repeat("a", maxObject)
	tooLong := strings.Repeat("b", maxObject+1)

	if err := c.BulkLoad("p", []workload.Object{{Name: tooLong, Size: 4096}}); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("BulkLoad of an overlong name: %v, want ErrNameTooLong", err)
	}
	if err := c.WriteObject("p", tooLong, []byte("data")); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("WriteObject of an overlong name: %v, want ErrNameTooLong", err)
	}
	for _, o := range c.OSDs() {
		if n := o.Store.Chunks(); n != 0 {
			t.Fatalf("osd.%d holds %d chunks after rejected writes", o.ID, n)
		}
	}

	if err := c.BulkLoad("p", []workload.Object{{Name: fits, Size: 4096}}); err != nil {
		t.Fatal(err)
	}
	pool, _ := c.Pool("p")
	pg, rec, _ := pool.findObject(fits)
	if k := pool.chunkKey(pg, rec, 5); k.NameLen != 1<<16-1 {
		t.Fatalf("NameLen = %d, want %d", k.NameLen, 1<<16-1)
	}
	data := []byte("payload bytes")
	if err := c.WriteObject("p", fits[1:], data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadObject("p", fits[1:])
	if err != nil || string(got) != string(data) {
		t.Fatalf("ReadObject = %q, %v", got, err)
	}
}

// Records keep their ids across Snapshot/Fork, and objects created in a
// fork get ids the snapshot never used.
func TestObjectIDsSurviveFork(t *testing.T) {
	c := smallCluster(t, 8, 1, nil)
	rsPool(t, c, 4)
	objs, _ := workload.Spec{Count: 8, ObjectSize: 1 << 16, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteObject("ecpool", "payload", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	f, err := snap.Fork(snap.Config())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadObject("ecpool", "payload"); err != nil || string(got) != "abc" {
		t.Fatalf("fork ReadObject = %q, %v", got, err)
	}
	if err := f.WriteObject("ecpool", "new", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	pool, _ := f.Pool("ecpool")
	seen := map[uint32]string{}
	for _, pg := range pool.PGs {
		for _, rec := range pg.Objects {
			if other, dup := seen[rec.id]; dup {
				t.Fatalf("objects %q and %q share id %d", other, rec.Name, rec.id)
			}
			seen[rec.id] = rec.Name
		}
	}
	if len(seen) != 10 {
		t.Fatalf("fork has %d objects, want 10", len(seen))
	}
	if got, err := f.ReadObject("ecpool", "payload"); err != nil || string(got) != "abc" {
		t.Fatalf("fork ReadObject after new write = %q, %v", got, err)
	}
}
