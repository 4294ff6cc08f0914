package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	wl "repro/internal/workload"
)

// Pinned digests of the Figure 2 campaign's simulated results (every
// figure's Baseline and Raw durations plus the snapshot cache's hit and
// miss counts), per workload scale divisor. The campaign runs the
// paper's fixed profiles, so the digest does not depend on the seed; a
// change to any simulated duration or to the cache's sharing shows here.
var pinnedCampaignDigest = map[int]string{
	1:   "0496a7096f458463cae2398028bae1c6427e8f2a137976c40d4872292b7197f6",
	100: "25fb7417cea424a3d05c4927ba778982b8096830cbdee0bf6927a812083daa29",
}

// campaignDigest hashes the campaign's simulated results in a canonical
// order.
func campaignDigest(figs []*experiments.Figure, hits, misses int64) string {
	h := sha256.New()
	for _, f := range figs {
		fmt.Fprintf(h, "%s baseline=%d\n", f.ID, int64(f.Baseline))
		keys := make([]string, 0, len(f.Raw))
		for k := range f.Raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s %s=%d\n", f.ID, k, int64(f.Raw[k]))
		}
	}
	fmt.Fprintf(h, "snapshots hits=%d misses=%d\n", hits, misses)
	return hex.EncodeToString(h.Sum(nil))
}

// campaign is the fig2-campaign workload: the paper's Figure 2 suite run
// cold, with the snapshot cache reset before every campaign, exactly as
// one ecbench invocation runs it.
type campaign struct {
	scale  int
	digest string // expected digest

	times samples // host seconds per campaign

	attempted, failed int
	lastDigest        string
	hits, misses      int64
}

func newCampaign(scale int) *campaign {
	return &campaign{scale: scale, digest: pinnedCampaignDigest[scale]}
}

var figureFns = []struct {
	id string
	fn func(int) (*experiments.Figure, error)
}{
	{"fig2a", experiments.Fig2aBackendCache},
	{"fig2b", experiments.Fig2bPlacementGroups},
	{"fig2c", experiments.Fig2cStripeUnit},
	{"fig2d", experiments.Fig2dFailureMode},
}

// unit runs one cold campaign and checks its digest. Untraced, it calls
// Fig2Suite; traced, it calls the four figures in Fig2Suite's order, each
// inside its own span.
func (c *campaign) unit(tr *tracer) time.Duration {
	experiments.ResetSnapshotCache()
	c.attempted++
	start := time.Now()
	var figs []*experiments.Figure
	var err error
	if tr == nil {
		figs, err = experiments.Fig2Suite(c.scale)
	} else {
		for _, f := range figureFns {
			id := tr.begin(layerExperiments, "experiments."+f.id)
			var fig *experiments.Figure
			fig, err = f.fn(c.scale)
			tr.end(id)
			if err != nil {
				break
			}
			figs = append(figs, fig)
		}
	}
	d := time.Since(start)
	c.times.add(d)
	if err != nil {
		c.failed++
		logFailure("fig2-campaign: %v\n", err)
		return d
	}
	c.hits, c.misses, _ = experiments.SnapshotCacheStats()
	c.lastDigest = campaignDigest(figs, c.hits, c.misses)
	if c.lastDigest != c.digest {
		c.failed++
		logFailure("fig2-campaign: digest %s, pinned %q\n", c.lastDigest, c.digest)
	}
	return d
}

func (c *campaign) opKinds() []samples { return []samples{c.times} }

func (c *campaign) report(r *report) {
	r.line("campaign_s", fmt.Sprintf("%.4f", c.times.median()), fmt.Sprintf("s (median of n=%d cold campaigns, max %.4f)", len(c.times), c.times.quantile(1)))
	r.line("campaign_digest", c.lastDigest, "")
	r.line("snapshot_hits/misses", fmt.Sprintf("%d/%d", c.hits, c.misses), "")
}

// referenceCells are the campaign cells whose layers the traced run
// replays one call at a time: the RS and Clay baselines and Clay with
// Figure 2c's 4 KiB stripe unit.
func referenceCells(scale int) []core.Profile {
	rs := core.DefaultProfile().ScaleWorkload(scale)
	clay := rs
	clay.Pool.Plugin, clay.Pool.D = pluginClay, 11
	small := clay
	small.Pool.PGNum = 256
	small.Pool.StripeUnit = 4 << 10
	return []core.Profile{rs, clay, small}
}

// replay times the reference cells through the core and cluster layers
// and records the per-layer metrics they feed.
func (c *campaign) replay(tr *tracer, lm layerMetrics) error {
	var populate, cellRun, bulk, snapMs, fork, run, simRate, pending samples
	for _, p := range referenceCells(c.scale) {
		// core: the populate and the cell run the campaign does per layout
		// and per cell.
		id := tr.begin(layerCore, "core.Populate")
		snap, err := core.Populate(p)
		populate.add(tr.end(id))
		if err != nil {
			return err
		}
		id = tr.begin(layerCore, "core.Snapshot.Run")
		res, err := snap.Run(p)
		cellRun.add(tr.end(id))
		if err != nil {
			return err
		}
		if res.Recovery == nil || !res.Recovery.Done() {
			return fmt.Errorf("cell %s: recovery did not complete", p.Name)
		}

		// cluster: the same cell one cluster call at a time, on a pool
		// whose code calls are traced.
		mgr, err := core.NewECManager(p)
		if err != nil {
			return err
		}
		cfg, err := mgr.ClusterConfig(nil)
		if err != nil {
			return err
		}
		pc := mgr.PoolConfig()
		pc.Plugin = tracedPlugin(pc.Plugin)
		id = tr.begin(layerCluster, "cluster.New+CreatePool")
		cl, err := cluster.New(cfg)
		if err == nil {
			_, err = cl.CreatePool(pc)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		objs, err := wl.Spec{NamePrefix: "obj", Count: p.Workload.Objects, ObjectSize: p.Workload.ObjectSize,
			SizeJitter: p.Workload.SizeJitter, Seed: p.Workload.Seed}.Objects()
		if err != nil {
			return err
		}
		id = tr.begin(layerCluster, "cluster.BulkLoad")
		err = cl.BulkLoad(pc.Name, objs)
		bulk.add(tr.end(id))
		if err != nil {
			return err
		}
		id = tr.begin(layerCluster, "cluster.Snapshot")
		cs := cl.Snapshot()
		snapMs.add(tr.end(id))
		id = tr.begin(layerCluster, "cluster.Fork")
		fc, err := cs.Fork(cfg)
		fork.add(tr.end(id))
		if err != nil {
			return err
		}
		inj := core.NewFaultInjector(fc, pc.Name)
		plans, err := inj.PlanAll(p.Faults)
		if err != nil {
			return err
		}
		for _, pf := range plans {
			if err := inj.Inject(pf); err != nil {
				return err
			}
		}
		id = tr.begin(layerCluster, "cluster.ScheduleRecovery")
		rec, err := fc.ScheduleRecovery(pc.Name)
		tr.end(id)
		if err != nil {
			return err
		}
		pending = append(pending, float64(fc.Sim().Pending()))
		id = tr.begin(layerSimclock, "cluster.RunSim")
		fc.RunSim()
		d := tr.end(id)
		run.add(d)
		if !rec.Done() {
			return fmt.Errorf("replay %s: recovery did not complete", p.Name)
		}
		simRate = append(simRate, rec.SystemRecoveryTime().Seconds()/d.Seconds())
	}
	lm["core.populate_ms"] = populate.mean() * 1e3
	lm["core.cell_run_ms"] = cellRun.mean() * 1e3
	lm["cluster.bulkload_ms"] = bulk.mean() * 1e3
	lm["cluster.snapshot_ms"] = snapMs.mean() * 1e3
	lm["cluster.fork_ms"] = fork.mean() * 1e3
	lm["simclock.run_ms"] = run.mean() * 1e3
	lm["simclock.sim_s_per_host_s"] = simRate.mean()
	lm["simclock.pending_at_start"] = pending.mean()
	return nil
}
