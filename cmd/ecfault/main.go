// Command ecfault runs one ECFault experiment described by a JSON profile
// and prints the measured recovery cycle, storage overhead, and merged
// log timeline.
//
// Usage:
//
//	ecfault -profile profile.json [-scale N] [-timeline]
//	ecfault -default > profile.json     # emit the paper-baseline profile
//	ecfault -clay > profile.json        # emit the Clay(12,9,11) profile
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cephconf"
	"repro/internal/core"
	"repro/internal/profutil"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	profilePath := flag.String("profile", "", "experiment profile (JSON)")
	confPath := flag.String("conf", "", "ceph.conf-style INI overlaying the profile")
	scale := flag.Int("scale", 1, "divide the profile workload by this factor")
	timeline := flag.Bool("timeline", false, "print the merged log timeline")
	emitDefault := flag.Bool("default", false, "print the paper-baseline profile and exit")
	emitClay := flag.Bool("clay", false, "print the Clay(12,9,11) profile and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := profutil.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	if *emitDefault || *emitClay {
		p := core.DefaultProfile()
		if *emitClay {
			p = core.ClayProfile()
		}
		data, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	if *profilePath == "" {
		log.Fatal("ecfault: -profile is required (or -default / -clay to emit one)")
	}
	p, err := core.LoadProfile(*profilePath)
	if err != nil {
		log.Fatal(err)
	}
	if *confPath != "" {
		conf, err := cephconf.Load(*confPath)
		if err != nil {
			log.Fatal(err)
		}
		if p, err = conf.ApplyProfile(p); err != nil {
			log.Fatal(err)
		}
	}
	p = p.ScaleWorkload(*scale)

	res, err := core.Run(p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("profile: %s (%s, k=%d m=%d pg_num=%d stripe_unit=%d)\n",
		p.Name, p.Pool.Plugin, p.Pool.K, p.Pool.M, p.Pool.PGNum, p.Pool.StripeUnit)
	fmt.Printf("workload: %d x %d MiB objects (%.1f GiB written)\n",
		p.Workload.Objects, p.Workload.ObjectSize>>20, float64(res.WrittenBytes)/float64(1<<30))
	fmt.Printf("storage:  %.1f GiB used, %s\n",
		float64(res.UsedBytes)/float64(1<<30), report.WAReport(res.WA))

	if res.Recovery != nil {
		r := res.Recovery
		fmt.Printf("recovery: detected=%v start=%v finished=%v\n", r.DetectedAt, r.RecoveryStartAt, r.FinishedAt)
		fmt.Printf("          system recovery %.1fs = checking %.1fs (%.1f%%) + EC recovery %.1fs\n",
			r.SystemRecoveryTime().Seconds(), r.CheckingPeriod().Seconds(),
			r.CheckingFraction()*100, r.ECRecoveryPeriod().Seconds())
		fmt.Printf("          %d degraded PGs, %d chunks repaired (%d object repairs, %d full decodes)\n",
			r.DegradedPGs, r.RepairedChunks, r.ObjectRepairs, r.FullDecodeObjects)
		fmt.Printf("          helper reads %.2f GiB, network %.2f GiB, writes %.2f GiB\n",
			gib(r.HelperDiskBytes), gib(r.NetworkBytes), gib(r.WrittenBytes))
	}
	if res.Scrub != nil {
		fmt.Printf("scrub:    %d chunks checked, %d inconsistent, %d repaired\n",
			res.Scrub.ChunksScrubbed, len(res.Scrub.Inconsistent), res.RepairedInconsistent)
	}
	fmt.Printf("logs:     %d lines shipped, %d dropped locally, %d iostat samples\n",
		res.LogLinesShipped, res.LogLinesDropped, len(res.IOSamples))
	if res.Profile.Workload.Payload {
		fmt.Printf("payload:  verified=%v (%d errors)\n", res.PayloadVerified, res.PayloadErrors)
	}
	if *timeline && len(res.Timeline) > 0 {
		fmt.Println("\ntimeline (recovery phases):")
		fmt.Print(report.TimelineEvents(res.Timeline, res.Timeline[0].Time))
	}
	_ = os.Stdout.Sync()
}

func gib(b int64) float64 { return float64(b) / float64(1<<30) }
