package main

import (
	"sync/atomic"

	"repro/internal/erasure"
	"repro/internal/erasure/codecache"
)

// Traced plugins wrap the registry's real code so the calls a cluster
// makes into the erasure layer show up as spans nested in the cluster's
// own spans. A pool created with tracedPlugin(p) behaves exactly like one
// created with p: every method delegates to the shared instance.
const tracedPrefix = "perfbench_traced_"

func tracedPlugin(plugin string) string { return tracedPrefix + plugin }

// activeTracer receives the wrapped calls; nil records nothing.
var activeTracer atomic.Pointer[tracer]

func init() {
	for _, plugin := range []string{pluginRS, pluginClay} {
		plugin := plugin
		erasure.Register(tracedPlugin(plugin), func(k, m, d int) (erasure.Code, error) {
			c, err := codecache.Get(plugin, k, m, d)
			if err != nil {
				return nil, err
			}
			return tracedCode{c}, nil
		})
	}
}

type tracedCode struct{ erasure.Code }

func (c tracedCode) Encode(shards [][]byte) error {
	tr := activeTracer.Load()
	defer tr.end(tr.begin(layerErasure, "erasure.Encode"))
	return c.Code.Encode(shards)
}

func (c tracedCode) Decode(shards [][]byte) error {
	tr := activeTracer.Load()
	defer tr.end(tr.begin(layerErasure, "erasure.Decode"))
	return c.Code.Decode(shards)
}

func (c tracedCode) Repair(shards [][]byte, failed []int) error {
	tr := activeTracer.Load()
	defer tr.end(tr.begin(layerErasure, "erasure.Repair"))
	return c.Code.Repair(shards, failed)
}

func (c tracedCode) RepairPlan(failed []int) (*erasure.Plan, error) {
	tr := activeTracer.Load()
	defer tr.end(tr.begin(layerErasure, "erasure.RepairPlan"))
	return c.Code.RepairPlan(failed)
}
