package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/core"
)

// payloadObjectSize is the client's object size: with RS(12,9)'s k=9 and
// a 4 KiB stripe unit it stores 32 KiB chunks, whose Clay sub-chunks are
// about 400 B (Figure 2c's small-stripe-unit regime).
const payloadObjectSize = 256 << 10

// payload is the payload-rw workload: a client driving the cluster with
// real bytes. One unit is an RS cycle followed by a Clay cycle; each
// cycle writes every object into a fresh cluster, fails the host holding
// the most chunks, degraded-reads every object before the failure is
// detected, runs recovery, and reads every object again.
type payload struct {
	profiles []core.Profile // RS then Clay, 4 KiB stripe unit
	names    []string
	data     [][]byte

	// per code label: op latencies
	write, degraded, read map[string]*samples

	attempted, failed int

	// Simulated counts and device traffic of the last unit.
	rec      [2]*cluster.RecoveryResult
	devWrite blockdev.Stats // write phase, both cycles
	devRead  blockdev.Stats // degraded-read phase, both cycles
	used     int64          // OSD bytes used after the write phases
	logical  int64          // object bytes written
	recovery samples        // ScheduleRecovery+RunSim host seconds

	// corruptObject, when >= 0, flips a stored data byte of that object
	// after it is written: a check that the read gate catches bad bytes.
	corruptObject int
}

var codeLabels = [2]string{"rs", "clay"}

func newPayload(seed int64, objects int) *payload {
	rs := core.DefaultProfile()
	rs.Pool.StripeUnit = 4 << 10
	clay := rs
	clay.Pool.Plugin, clay.Pool.D = pluginClay, 11
	w := &payload{
		profiles:      []core.Profile{rs, clay},
		write:         map[string]*samples{},
		degraded:      map[string]*samples{},
		read:          map[string]*samples{},
		corruptObject: -1,
	}
	for _, l := range codeLabels {
		w.write[l], w.degraded[l], w.read[l] = &samples{}, &samples{}, &samples{}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < objects; i++ {
		w.names = append(w.names, fmt.Sprintf("obj-%x", rng.Uint64()))
		buf := make([]byte, payloadObjectSize)
		rng.Read(buf)
		w.data = append(w.data, buf)
	}
	return w
}

func (w *payload) fail(format string, args ...any) {
	w.failed++
	logFailure("payload-rw: "+format+"\n", args...)
}

func deviceTotals(cl *cluster.Cluster) blockdev.Stats {
	var t blockdev.Stats
	for _, o := range cl.OSDs() {
		s := o.Store.Device().Snapshot()
		t.ReadOps += s.ReadOps
		t.WriteOps += s.WriteOps
		t.ReadBytes += s.ReadBytes
		t.WriteBytes += s.WriteBytes
	}
	return t
}

func addStats(acc *blockdev.Stats, before, after blockdev.Stats) {
	acc.ReadOps += after.ReadOps - before.ReadOps
	acc.WriteOps += after.WriteOps - before.WriteOps
	acc.ReadBytes += after.ReadBytes - before.ReadBytes
	acc.WriteBytes += after.WriteBytes - before.WriteBytes
}

// check compares a read against the object's bytes, outside any timed
// interval.
func (w *payload) check(phase string, i int, got []byte, err error) {
	w.attempted++
	if err != nil {
		w.fail("%s %s: %v", phase, w.names[i], err)
	} else if !bytes.Equal(got, w.data[i]) {
		w.fail("%s %s: bytes differ", phase, w.names[i])
	}
}

func (w *payload) unit(tr *tracer) time.Duration {
	w.devWrite, w.devRead, w.used, w.logical = blockdev.Stats{}, blockdev.Stats{}, 0, 0
	var timed time.Duration
	for ci, p := range w.profiles {
		d, err := w.cycle(tr, ci, p)
		timed += d
		if err != nil {
			w.attempted++
			w.fail("%s cycle: %v", codeLabels[ci], err)
		}
	}
	return timed
}

// cycle runs one code's cycle and returns its timed host time.
func (w *payload) cycle(tr *tracer, ci int, p core.Profile) (time.Duration, error) {
	label := codeLabels[ci]
	mgr, err := core.NewECManager(p)
	if err != nil {
		return 0, err
	}
	cfg, err := mgr.ClusterConfig(nil)
	if err != nil {
		return 0, err
	}
	pc := mgr.PoolConfig()
	if tr != nil {
		pc.Plugin = tracedPlugin(pc.Plugin)
	}
	var timed time.Duration
	lap := func(t0 time.Time) time.Duration {
		d := time.Since(t0)
		timed += d
		return d
	}

	t0 := time.Now()
	id := tr.begin(layerCluster, "cluster.New+CreatePool")
	cl, err := cluster.New(cfg)
	if err == nil {
		_, err = cl.CreatePool(pc)
	}
	tr.end(id)
	lap(t0)
	if err != nil {
		return timed, err
	}

	before := deviceTotals(cl)
	for i, name := range w.names {
		t0 := time.Now()
		id := tr.begin(layerCluster, "cluster.WriteObject")
		err := cl.WriteObject(pc.Name, name, w.data[i])
		tr.end(id)
		w.write[label].add(lap(t0))
		w.attempted++
		if err != nil {
			w.fail("write %s: %v", name, err)
		}
	}
	addStats(&w.devWrite, before, deviceTotals(cl))
	w.used += cl.UsedBytes()
	w.logical += int64(len(w.names)) * payloadObjectSize
	if w.corruptObject >= 0 {
		if err := cl.CorruptChunk(pc.Name, w.names[w.corruptObject], 0); err != nil {
			return timed, err
		}
	}

	// Fail the data-heaviest host and stop the clock after the fault but
	// before the monitor detects it: reads now decode around it.
	t0 = time.Now()
	id = tr.begin(layerCluster, "cluster.FailHost")
	host, err := cl.HostWithMostChunks(pc.Name)
	if err == nil {
		at := time.Duration(p.Faults[0].AtSeconds * float64(time.Second))
		cl.FailHost(at, host)
		cl.Sim().RunUntil(at + time.Second)
	}
	tr.end(id)
	lap(t0)
	if err != nil {
		return timed, err
	}
	degradedPGs, err := cl.DegradedPGs(pc.Name)
	if err != nil {
		return timed, err
	}
	inDegradedPG := map[string]bool{}
	for _, pg := range degradedPGs {
		for _, o := range pg.Objects {
			inDegradedPG[o.Name] = true
		}
	}
	before = deviceTotals(cl)
	for i, name := range w.names {
		t0 := time.Now()
		id := tr.begin(layerCluster, "cluster.ReadObject(degraded)")
		got, err := cl.ReadObject(pc.Name, name)
		tr.end(id)
		d := lap(t0)
		if inDegradedPG[name] {
			w.degraded[label].add(d)
		}
		w.check("degraded read", i, got, err)
	}
	addStats(&w.devRead, before, deviceTotals(cl))

	t0 = time.Now()
	id = tr.begin(layerCluster, "cluster.ScheduleRecovery")
	rec, err := cl.ScheduleRecovery(pc.Name)
	tr.end(id)
	if err != nil {
		lap(t0)
		return timed, err
	}
	id = tr.begin(layerSimclock, "cluster.RunSim")
	cl.RunSim()
	tr.end(id)
	w.recovery.add(lap(t0))
	w.rec[ci] = rec
	w.attempted++
	if !rec.Done() {
		w.fail("%s recovery did not reach Done()", label)
	}

	for i, name := range w.names {
		t0 := time.Now()
		id := tr.begin(layerCluster, "cluster.ReadObject")
		got, err := cl.ReadObject(pc.Name, name)
		tr.end(id)
		w.read[label].add(lap(t0))
		w.check("read", i, got, err)
	}
	return timed, nil
}

func (w *payload) opKinds() []samples {
	var out []samples
	for _, l := range codeLabels {
		out = append(out, *w.write[l], *w.degraded[l], *w.read[l])
	}
	return out
}

func (w *payload) report(r *report) {
	all := func(m map[string]*samples) samples {
		var s samples
		for _, l := range codeLabels {
			s = append(s, *m[l]...)
		}
		return s
	}
	r.timing("write", "us", all(w.write), 1e6)
	r.timing("degraded_read", "us", all(w.degraded), 1e6)
	r.timing("read", "us", all(w.read), 1e6)
	for _, l := range codeLabels {
		r.timing(l+".write", "us", *w.write[l], 1e6)
		r.timing(l+".degraded_read", "us", *w.degraded[l], 1e6)
		r.timing(l+".read", "us", *w.read[l], 1e6)
	}
}

// layers records the cluster and blockdev metrics of the last unit.
func (w *payload) layers(lm layerMetrics) {
	var repairs, chunks, fullDecode, helper, network float64
	for _, rec := range w.rec {
		if rec == nil {
			continue
		}
		repairs += float64(rec.ObjectRepairs)
		chunks += float64(rec.RepairedChunks)
		fullDecode += float64(rec.FullDecodeObjects)
		helper += float64(rec.HelperDiskBytes)
		network += float64(rec.NetworkBytes)
	}
	lm["cluster.recovery_ms"] = w.recovery.median() * 1e3
	lm["cluster.object_repairs"] = repairs
	lm["cluster.repaired_chunks"] = chunks
	lm["cluster.full_decode_objects"] = fullDecode
	lm["cluster.helper_disk_bytes"] = helper
	lm["cluster.network_bytes"] = network
	if w.logical > 0 {
		lm["cluster.wa_factor"] = float64(w.used) / float64(w.logical)
	}
	lm["blockdev.write_bytes"] = float64(w.devWrite.WriteBytes)
	lm["blockdev.write_ops"] = float64(w.devWrite.WriteOps)
	lm["blockdev.read_bytes"] = float64(w.devRead.ReadBytes)
	lm["blockdev.read_ops"] = float64(w.devRead.ReadOps)
}
