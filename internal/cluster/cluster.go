// Package cluster simulates a Ceph-like erasure-coded distributed storage
// system: a MON/MGR node plus OSD hosts, CRUSH placement of placement
// groups, a BlueStore-like backend per OSD, heartbeat-based failure
// detection, the down->out checking period, and an EC recovery engine that
// charges disk, network and CPU time through a discrete-event simulator.
//
// Erasure coding is executed for real when objects carry payloads; large
// synthetic workloads run in accounting mode where only sizes flow, so the
// paper-scale experiments (10,000 x 64 MB) complete in seconds of wall
// time while producing faithful recovery timelines and storage usage.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/blockdev"
	"repro/internal/bluestore"
	"repro/internal/crush"
	"repro/internal/erasure"
	"repro/internal/erasure/codecache"

	// Load the erasure-code plugins, as Ceph loads its EC plugin shared
	// objects.
	_ "repro/internal/erasure/clay"
	_ "repro/internal/erasure/lrc"
	_ "repro/internal/erasure/reedsolomon"
	_ "repro/internal/erasure/shec"

	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/wamodel"
	"repro/internal/workload"
)

// Errors.
var (
	ErrNoPool      = errors.New("cluster: no such pool")
	ErrNoObject    = errors.New("cluster: no such object")
	ErrPoolExists  = errors.New("cluster: pool exists")
	ErrBadGeometry = errors.New("cluster: invalid cluster geometry")
	ErrNameTooLong = errors.New("cluster: chunk name too long")
	ErrBadNetwork  = errors.New("cluster: invalid network config")
)

// LogFunc receives framework log lines (simulated time, node, message).
type LogFunc func(t simclock.Time, node, msg string)

// Config describes the cluster under test.
type Config struct {
	Hosts          int
	OSDsPerHost    int
	DeviceCapacity int64
	// Racks, when > 0, distributes hosts round-robin over that many rack
	// buckets so pools can use the "rack" failure domain.
	Racks int
	Net   simnet.Config
	Store bluestore.Config
	Cost  CostModel
	// Log, if set, receives all node log lines.
	Log LogFunc
}

// DefaultConfig mirrors the paper's testbed shape: 30 OSD hosts with two
// 100 GB NVMe volumes each, plus one MON/MGR host.
func DefaultConfig() Config {
	return Config{
		Hosts:          30,
		OSDsPerHost:    2,
		DeviceCapacity: 100 << 30,
		Net:            simnet.DefaultConfig(),
		Store:          bluestore.DefaultConfig(),
		Cost:           DefaultCostModel(),
	}
}

// OSD is one object storage daemon bound to one device.
type OSD struct {
	ID    int
	Host  string
	Store *bluestore.Store

	nic *simnet.NIC // the host's interface, resolved once for the hot path

	up bool // process alive
	in bool // in the CRUSH map

	disk    *simclock.Queue     // device service queue
	cpu     *simclock.Queue     // decode/peering CPU
	reserve *simclock.Semaphore // recovery/backfill reservations (osd_max_backfills)
}

// Up reports whether the OSD process is alive.
func (o *OSD) Up() bool { return o.up }

// MarkDown stops the OSD process immediately, without going through the
// simulator's failure scheduling — for constructing degraded states in
// measurements and tests. Recovery cycles should use InjectOSDFailures.
func (o *OSD) MarkDown() { o.up = false }

// ObjectRecord tracks one stored object within a PG.
type ObjectRecord struct {
	id        uint32 // unique within the pool; names its chunks in the stores
	Name      string
	Size      int64
	ChunkSize int64
	Payload   bool // real bytes stored
}

// PG is a placement group: an ordered acting set of OSDs holding one
// chunk each for every object mapped to the group.
type PG struct {
	ID      int
	Acting  []int
	Objects []*ObjectRecord
}

// Pool is an erasure-coded pool.
type Pool struct {
	Name          string
	Plugin        string
	Code          erasure.Code
	PGCount       int
	StripeUnit    int64
	FailureDomain string
	PGs           []*PG

	// cfg is the normalized PoolConfig the pool was created with, kept so
	// Snapshot/Fork can rebuild the pool without re-running CRUSH.
	cfg PoolConfig

	id         uint32 // unique within the cluster and its forks
	nextObject uint32 // id of the next object record
}

// PoolConfig parameterizes CreatePool.
type PoolConfig struct {
	Name          string
	Plugin        string // erasure plugin name, e.g. "jerasure_reed_sol_van", "clay"
	K, M, D       int
	PGNum         int
	StripeUnit    int64
	FailureDomain string // "osd", "host", or "rack"
}

// Cluster is the simulated DSS. A Cluster is single-goroutine: its pools,
// object records, simulator and payload scratch are unsynchronised, so
// each cluster (and each snapshot fork) must be driven from one goroutine
// at a time. Only the stores below it are safe for concurrent use.
type Cluster struct {
	cfg   Config
	sim   *simclock.Sim
	net   *simnet.Network
	crush *crush.Map
	osds  []*OSD
	pools map[string]*Pool
	log   LogFunc

	mon *monitor

	// Freelists for the pooled recovery-pipeline nodes (see recovery.go).
	freeObjs   *objRepair
	freeReads  *helperRead
	freeWrites *chunkWrite

	// scratch backs the payload path's temporary shards: partial data
	// shards and parity on write, parity on a degraded read, survivors on
	// repair. It is grown to n × chunk, reused by the next payload call,
	// and never handed to a caller.
	scratch []byte
}

// scratchBuf returns the cluster's payload scratch resized to size bytes.
// Its contents are stale, and it is valid only until the next payload
// call on this cluster.
func (c *Cluster) scratchBuf(size int64) []byte {
	if int64(cap(c.scratch)) < size {
		c.scratch = make([]byte, size)
	}
	return c.scratch[:size]
}

// shardOfStripe returns shard i of a stripe of cs-byte shards laid out
// back to back in buf, capacity-capped so it cannot grow into shard i+1.
func shardOfStripe(buf []byte, i int, cs int64) []byte {
	lo, hi := int64(i)*cs, int64(i+1)*cs
	return buf[lo:hi:hi]
}

// emptyShards fills every nil shard with a non-nil empty slice: the
// stripe of a zero-byte object, which no codec accepts and none needs.
func emptyShards(shards [][]byte) {
	for i, sh := range shards {
		if sh == nil {
			shards[i] = []byte{}
		}
	}
}

// New builds the cluster topology with fresh empty stores.
func New(cfg Config) (*Cluster, error) {
	return build(cfg, func(cfg Config, id, hostIdx, devIdx int) (*bluestore.Store, error) {
		dev, err := blockdev.New(fmt.Sprintf("host%02d-nvme%dn1", hostIdx, devIdx), cfg.DeviceCapacity, 4096)
		if err != nil {
			return nil, err
		}
		return bluestore.Open(dev, cfg.Store)
	})
}

// normalizeClusterConfig applies the zero-value defaults New documents
// and rejects what it cannot default: a negative or NaN bandwidth, and a
// negative latency.
func normalizeClusterConfig(cfg Config) (Config, error) {
	if cfg.Hosts <= 0 || cfg.OSDsPerHost <= 0 {
		return cfg, fmt.Errorf("%w: hosts=%d osdsPerHost=%d", ErrBadGeometry, cfg.Hosts, cfg.OSDsPerHost)
	}
	if cfg.DeviceCapacity <= 0 {
		cfg.DeviceCapacity = 100 << 30
	}
	if cfg.Net.BandwidthBytesPerSec == 0 {
		cfg.Net = simnet.DefaultConfig()
	}
	if bw := cfg.Net.BandwidthBytesPerSec; !(bw > 0) || cfg.Net.Latency < 0 {
		return cfg, fmt.Errorf("%w: bandwidth=%v B/s latency=%v", ErrBadNetwork, bw, cfg.Net.Latency)
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	return cfg, nil
}

// build constructs the cluster skeleton — simulator, network, CRUSH map,
// OSD queues — and asks mkStore for each OSD's object store, so New can
// create empty stores and Snapshot.Fork can supply copy-on-write forks.
func build(cfg Config, mkStore func(cfg Config, id, hostIdx, devIdx int) (*bluestore.Store, error)) (*Cluster, error) {
	cfg, err := normalizeClusterConfig(cfg)
	if err != nil {
		return nil, err
	}
	sim := simclock.New()
	net := simnet.New(sim, cfg.Net)
	log := cfg.Log
	if log == nil {
		log = func(simclock.Time, string, string) {}
	}

	b := crush.NewBuilder()
	c := &Cluster{
		cfg:   cfg,
		sim:   sim,
		net:   net,
		pools: map[string]*Pool{},
		log:   log,
	}
	if err := net.AddHost("mon0"); err != nil {
		return nil, err
	}
	for r := 0; r < cfg.Racks; r++ {
		if err := b.AddRack(fmt.Sprintf("rack%02d", r)); err != nil {
			return nil, err
		}
	}
	for h := 0; h < cfg.Hosts; h++ {
		host := fmt.Sprintf("host%02d", h)
		rack := ""
		if cfg.Racks > 0 {
			rack = fmt.Sprintf("rack%02d", h%cfg.Racks)
		}
		if err := b.AddHost(host, rack); err != nil {
			return nil, err
		}
		if err := net.AddHost(host); err != nil {
			return nil, err
		}
		nic := net.NIC(host)
		for d := 0; d < cfg.OSDsPerHost; d++ {
			id, err := b.AddOSD(host, 1.0)
			if err != nil {
				return nil, err
			}
			store, err := mkStore(cfg, id, h, d)
			if err != nil {
				return nil, err
			}
			backfills := cfg.Cost.MaxBackfills
			if backfills < 1 {
				backfills = 1
			}
			osd := &OSD{
				ID:      id,
				Host:    host,
				Store:   store,
				nic:     nic,
				up:      true,
				in:      true,
				disk:    sim.NewQueue(1),
				cpu:     sim.NewQueue(1),
				reserve: sim.NewSemaphore(backfills),
			}
			c.osds = append(c.osds, osd)
		}
	}
	c.crush = b.Build()
	c.mon = newMonitor(c)
	return c, nil
}

// Sim exposes the simulator (for schedulers and tests).
func (c *Cluster) Sim() *simclock.Sim { return c.sim }

// RunSim drives the simulation to completion and returns the final
// simulated time.
func (c *Cluster) RunSim() simclock.Time { return c.sim.Run() }

// Net exposes the network fabric.
func (c *Cluster) Net() *simnet.Network { return c.net }

// Crush exposes the placement map.
func (c *Cluster) Crush() *crush.Map { return c.crush }

// OSDs returns all OSDs.
func (c *Cluster) OSDs() []*OSD { return c.osds }

// OSD returns one OSD by id.
func (c *Cluster) OSD(id int) *OSD { return c.osds[id] }

// Pool returns a pool by name.
func (c *Cluster) Pool(name string) (*Pool, error) {
	p, ok := c.pools[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPool, name)
	}
	return p, nil
}

// CreatePool creates an erasure-coded pool and maps its placement groups.
func (c *Cluster) CreatePool(pc PoolConfig) (*Pool, error) {
	if _, dup := c.pools[pc.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrPoolExists, pc.Name)
	}
	if pc.PGNum <= 0 {
		return nil, fmt.Errorf("cluster: pool %q needs pg_num >= 1", pc.Name)
	}
	if pc.StripeUnit <= 0 {
		pc.StripeUnit = 4096
	}
	if pc.FailureDomain == "" {
		pc.FailureDomain = crush.TypeHost
	}
	// Codes come from the process-wide registry: constructions are
	// immutable and their derived-artifact caches are concurrency-safe,
	// so pools with the same spec — across clusters and snapshot forks —
	// share one instance and its compiled programs/plans.
	code, err := codecache.Get(pc.Plugin, pc.K, pc.M, pc.D)
	if err != nil {
		return nil, err
	}
	if uint64(pc.PGNum) > math.MaxUint32 {
		return nil, fmt.Errorf("cluster: pool %q pg_num %d exceeds %d", pc.Name, pc.PGNum, uint32(math.MaxUint32))
	}
	if chunkNameLen(pc.Name, pc.PGNum-1, "", code.N()-1) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: pool name of %d bytes", ErrNameTooLong, len(pc.Name))
	}
	pool := &Pool{
		Name:          pc.Name,
		Plugin:        pc.Plugin,
		Code:          code,
		PGCount:       pc.PGNum,
		StripeUnit:    pc.StripeUnit,
		FailureDomain: pc.FailureDomain,
		cfg:           pc,
		id:            uint32(len(c.pools)),
	}
	poolSeed := nameHash(pc.Name)
	for pg := 0; pg < pc.PGNum; pg++ {
		acting, err := c.crush.Select(poolSeed^uint64(pg)*0x9e3779b97f4a7c15, code.N(), pc.FailureDomain)
		if err != nil {
			return nil, fmt.Errorf("cluster: mapping pg %d: %w", pg, err)
		}
		pool.PGs = append(pool.PGs, &PG{ID: pg, Acting: acting})
	}
	c.pools[pc.Name] = pool
	c.log(c.sim.Now(), "mon0", fmt.Sprintf("pool %s created: plugin=%s k=%d m=%d pg_num=%d stripe_unit=%d", pc.Name, pc.Plugin, pc.K, pc.M, pc.PGNum, pc.StripeUnit))
	return pool, nil
}

func nameHash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// pgOf maps an object name to its placement group.
func (p *Pool) pgOf(name string) *PG {
	return p.PGs[nameHash(name)%uint64(p.PGCount)]
}

// PGOf returns the placement group an object name maps to.
func (p *Pool) PGOf(name string) *PG { return p.pgOf(name) }

// chunkKey is the store key of one shard of an object. Its NameLen is
// the length of the shard's Ceph object name "<pool>/<pg>/<object>/s<shard>",
// computed without building the name; nextRecord has checked that it
// fits, and shards fit because GF(2^8) codes have at most 256.
func (p *Pool) chunkKey(pg *PG, rec *ObjectRecord, shard int) bluestore.ChunkKey {
	return bluestore.ChunkKey{
		Pool:    p.id,
		PG:      uint32(pg.ID),
		Object:  rec.id,
		Shard:   uint16(shard),
		NameLen: uint16(chunkNameLen(p.Name, pg.ID, rec.Name, shard)),
	}
}

// chunkNameLen is len(fmt.Sprintf("%s/%d/%s/s%d", pool, pg, object, shard))
// for non-negative pg and shard.
func chunkNameLen(pool string, pg int, object string, shard int) int {
	return len(pool) + len(object) + len("///s") + decimalLen(pg) + decimalLen(shard)
}

func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// nextRecord returns a record for a new object of pg under the pool's
// next object id. The id is only consumed when addRecord files the
// record, so a write that fails first is retried under the same keys.
func (p *Pool) nextRecord(pg *PG, name string) (*ObjectRecord, error) {
	if chunkNameLen(p.Name, pg.ID, name, p.Code.N()-1) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: object name of %d bytes in pool %q", ErrNameTooLong, len(name), p.Name)
	}
	if p.nextObject == math.MaxUint32 {
		return nil, fmt.Errorf("cluster: pool %q is out of object ids", p.Name)
	}
	return &ObjectRecord{id: p.nextObject, Name: name}, nil
}

// addRecord files a record from nextRecord in its PG.
func (p *Pool) addRecord(pg *PG, rec *ObjectRecord) {
	pg.Objects = append(pg.Objects, rec)
	p.nextObject++
}

// storedChunkSize returns the on-disk chunk size for an object: the
// division-and-padding formula, rounded up so payload-mode shards divide
// evenly by the code's sub-chunk count.
func (p *Pool) storedChunkSize(objectSize int64, payload bool) (int64, error) {
	cs, err := wamodel.ChunkSize(objectSize, p.Code.K(), p.StripeUnit)
	if err != nil {
		return 0, err
	}
	if payload {
		alpha := int64(p.Code.SubChunks())
		cs = (cs + alpha - 1) / alpha * alpha
	}
	return cs, nil
}

// BulkLoad ingests a synthetic workload into a pool without payload bytes
// or simulated time: the steady state before the experiment's fault.
func (c *Cluster) BulkLoad(poolName string, objs []workload.Object) error {
	pool, err := c.Pool(poolName)
	if err != nil {
		return err
	}
	n := pool.Code.N()
	// Group the chunk writes per OSD and ingest each group in one
	// WriteChunksBulk call: identical accounting to per-chunk WriteChunk,
	// but one lock/KV/device round per store instead of one per chunk.
	perOSD := int64(len(objs)) * int64(n) / int64(len(c.osds))
	batches := make([][]bluestore.BulkChunk, len(c.osds))
	for id := range batches {
		batches[id] = make([]bluestore.BulkChunk, 0, perOSD+perOSD/4)
	}
	for i := range objs {
		o := objs[i]
		pg := pool.pgOf(o.Name)
		cs, err := pool.storedChunkSize(o.Size, false)
		if err != nil {
			return err
		}
		rec, err := pool.nextRecord(pg, o.Name)
		if err != nil {
			return err
		}
		rec.Size, rec.ChunkSize = o.Size, cs
		pool.addRecord(pg, rec)
		share := o.Size / int64(n)
		for shard, osdID := range pg.Acting {
			batches[osdID] = append(batches[osdID], bluestore.BulkChunk{
				Key:   pool.chunkKey(pg, rec, shard),
				Size:  cs,
				Share: share,
			})
		}
	}
	for osdID, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if err := c.osds[osdID].Store.WriteChunksBulk(batch); err != nil {
			return fmt.Errorf("cluster: bulk load on osd.%d: %w", osdID, err)
		}
	}
	return nil
}

// findObject locates an object's record in its PG, or returns nil.
func (p *Pool) findObject(name string) (*PG, *ObjectRecord, int) {
	pg := p.pgOf(name)
	for i, o := range pg.Objects {
		if o.Name == name {
			return pg, o, i
		}
	}
	return pg, nil, -1
}

// WriteObject stores an object with real payload bytes: it erasure-codes
// the data with the pool's plugin and writes one shard per acting-set OSD.
// Overwriting an existing object replaces its chunks. data is borrowed:
// it is only read, and not retained once WriteObject returns.
//
// Payload layout: data shard i holds the contiguous byte range
// [i*chunk, (i+1)*chunk) of the object (zero-padded at the tail). Ceph
// interleaves stripe units across shards instead; the two layouts are
// equivalent for sizing, repair I/O and durability, and the stripe unit
// still governs chunk padding and sub-chunk granularity here.
func (c *Cluster) WriteObject(poolName, name string, data []byte) error {
	pool, err := c.Pool(poolName)
	if err != nil {
		return err
	}
	pg, rec, _ := pool.findObject(name)
	code := pool.Code
	cs, err := pool.storedChunkSize(int64(len(data)), true)
	if err != nil {
		return err
	}
	existing := rec != nil
	if !existing {
		if rec, err = pool.nextRecord(pg, name); err != nil {
			return err
		}
	}
	// Full data shards borrow the caller's bytes (the codec only reads
	// them); partial or empty tail shards and the parity live in scratch,
	// each in its own region.
	k, n := code.K(), code.N()
	shards := make([][]byte, n)
	if cs == 0 {
		emptyShards(shards)
	} else {
		scratch := c.scratchBuf(int64(n) * cs)
		for i := range shards {
			if hi := int64(i+1) * cs; i < k && hi <= int64(len(data)) {
				shards[i] = shardOfStripe(data, i, cs)
				continue
			}
			shards[i] = shardOfStripe(scratch, i, cs)
			if i < k {
				clear(shards[i])
				if lo := int64(i) * cs; lo < int64(len(data)) {
					copy(shards[i], data[lo:])
				}
			}
		}
		if err := code.Encode(shards); err != nil {
			return err
		}
	}
	share := int64(len(data)) / int64(code.N())
	for shard, osdID := range pg.Acting {
		osd := c.osds[osdID]
		if !osd.up {
			continue // degraded write: shard stays missing until recovery
		}
		if err := osd.Store.WriteChunk(pool.chunkKey(pg, rec, shard), cs, share, shards[shard]); err != nil {
			return err
		}
	}
	rec.Size = int64(len(data))
	rec.ChunkSize = cs
	rec.Payload = true
	if !existing {
		pool.addRecord(pg, rec)
	}
	return nil
}

// DeleteObject removes an object's chunks from every acting OSD and drops
// its record.
func (c *Cluster) DeleteObject(poolName, name string) error {
	pool, err := c.Pool(poolName)
	if err != nil {
		return err
	}
	pg, rec, idx := pool.findObject(name)
	if rec == nil {
		return fmt.Errorf("%w: %s/%s", ErrNoObject, poolName, name)
	}
	for shard, osdID := range pg.Acting {
		osd := c.osds[osdID]
		if !osd.up {
			continue
		}
		// Chunks may be missing on OSDs that joined after a degraded
		// write; ignore not-found.
		_ = osd.Store.DeleteChunk(pool.chunkKey(pg, rec, shard))
	}
	pg.Objects = append(pg.Objects[:idx], pg.Objects[idx+1:]...)
	return nil
}

// StatObject returns an object's logical size.
func (c *Cluster) StatObject(poolName, name string) (int64, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return 0, err
	}
	_, rec, _ := pool.findObject(name)
	if rec == nil {
		return 0, fmt.Errorf("%w: %s/%s", ErrNoObject, poolName, name)
	}
	return rec.Size, nil
}

// ReadObject reads an object, decoding around missing or failed shards
// (a degraded read) when necessary. The returned buffer is fresh on
// every call and belongs to the caller.
func (c *Cluster) ReadObject(poolName, name string) ([]byte, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return nil, err
	}
	pg := pool.pgOf(name)
	var rec *ObjectRecord
	for _, o := range pg.Objects {
		if o.Name == name {
			rec = o
			break
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoObject, poolName, name)
	}
	if !rec.Payload {
		return nil, fmt.Errorf("cluster: object %s has no payload (accounting mode)", name)
	}
	// Data shards are read straight into the returned buffer. Parity is
	// only charged while every data shard is present; once one is missing
	// the rest of the stripe is read into scratch and decoded.
	code := pool.Code
	k, cs := code.K(), rec.ChunkSize
	out := make([]byte, int64(k)*cs)
	var (
		shards   [][]byte // the decode stripe, built at the first missing data shard
		parity   []byte
		lostData []int
	)
	available := 0
	for shard, osdID := range pg.Acting {
		var dst []byte
		if shard < k {
			dst = shardOfStripe(out, shard, cs)
		} else if shards != nil {
			dst = shardOfStripe(parity, shard-k, cs)
		}
		osd := c.osds[osdID]
		ok := osd.up
		if ok {
			_, payload, err := osd.Store.ReadChunkInto(pool.chunkKey(pg, rec, shard), dst)
			ok = err == nil && payload
		}
		switch {
		case ok:
			available++
			if shards != nil {
				shards[shard] = dst
			}
		case shard < k:
			if shards == nil {
				shards = make([][]byte, code.N())
				for i := 0; i < shard; i++ {
					shards[i] = shardOfStripe(out, i, cs)
				}
				parity = c.scratchBuf(int64(code.M()) * cs)
			}
			lostData = append(lostData, shard)
		}
	}
	if available < k {
		return nil, fmt.Errorf("cluster: object %s unreadable: %d of %d shards available", name, available, k)
	}
	if shards != nil && cs > 0 {
		if err := code.Decode(shards); err != nil {
			return nil, err
		}
		for _, i := range lostData {
			copy(shardOfStripe(out, i, cs), shards[i])
		}
	}
	return out[:rec.Size:rec.Size], nil
}

// UsedBytes sums OSD-level storage usage across the cluster, the quantity
// behind the paper's Actual WA Factor.
func (c *Cluster) UsedBytes() int64 {
	var total int64
	for _, o := range c.osds {
		total += o.Store.UsedBytes()
	}
	return total
}

// DataBytes sums allocated payload bytes across OSDs.
func (c *Cluster) DataBytes() int64 {
	var total int64
	for _, o := range c.osds {
		total += o.Store.DataBytes()
	}
	return total
}

// DegradedPGs lists PGs of a pool that currently include a down OSD in
// their acting set.
func (c *Cluster) DegradedPGs(poolName string) ([]*PG, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return nil, err
	}
	var out []*PG
	for _, pg := range pool.PGs {
		for _, id := range pg.Acting {
			if !c.osds[id].up {
				out = append(out, pg)
				break
			}
		}
	}
	return out, nil
}

// HostWithMostChunks returns the host whose OSDs hold the most chunks of
// the pool — the EC-aware target the white-box fault injector picks so a
// "host failure" is guaranteed to intersect stored data.
func (c *Cluster) HostWithMostChunks(poolName string) (string, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return "", err
	}
	counts := map[string]int{}
	for _, pg := range pool.PGs {
		if len(pg.Objects) == 0 {
			continue
		}
		for _, id := range pg.Acting {
			counts[c.crush.HostOf(id)] += len(pg.Objects)
		}
	}
	best, bestCount := "", -1
	hosts := make([]string, 0, len(counts))
	for h := range counts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		if counts[h] > bestCount {
			best, bestCount = h, counts[h]
		}
	}
	if best == "" {
		return "", fmt.Errorf("cluster: pool %q holds no data", poolName)
	}
	return best, nil
}
