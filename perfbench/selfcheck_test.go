package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The self-check: a tiny pass of each workload, traced and untraced,
// must verify clean, and each correctness gate must catch a planted
// fault, so no gate can pass vacuously.

const tinyScale = 100 // campaign workload divisor for the tiny pass

func tinyWorkloads(t *testing.T) (*campaign, *payload, *codecStream) {
	t.Helper()
	cs, err := newCodecStream(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	return newCampaign(tinyScale), newPayload(3, 16), cs
}

func TestTinyWorkloadsVerify(t *testing.T) {
	c, p, cs := tinyWorkloads(t)
	tr := newTracer()
	activeTracer.Store(tr)
	defer activeTracer.Store(nil)
	for _, w := range []workload{c, p, cs} {
		w.unit(nil)
		w.unit(tr)
		if a, f := w.counts(); a == 0 || f != 0 {
			t.Errorf("%T: %d of %d ops failed", w, f, a)
		}
	}
	if len(tr.spans) == 0 {
		t.Error("traced units recorded no spans")
	}
	if err := c.replay(tr, layerMetrics{}); err != nil {
		t.Errorf("replay: %v", err)
	}
}

func TestGatesCatchPlantedFaults(t *testing.T) {
	c, p, cs := tinyWorkloads(t)
	c.digest = "0000000000000000000000000000000000000000000000000000000000000000"
	p.corruptObject = 0
	cs.corrupt = true
	for _, w := range []workload{c, p, cs} {
		w.unit(nil)
		if _, f := w.counts(); f == 0 {
			t.Errorf("%T: planted fault not reported", w)
		}
	}
}

// TestBenchmarkJSONListsMetrics keeps BENCHMARK.json's metric lists in
// step with what the program reports.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("end_to_end lists %d metrics, the program reports %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if got := b.EndToEnd[i]; got != (entry{m.name, m.unit, m.better}) {
			t.Errorf("end_to_end[%d] = %+v, program reports %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(layerList) {
		t.Fatalf("per_layer lists %d metrics, the program reports %d", len(b.PerLayer), len(layerList))
	}
	for i, m := range layerList {
		if got := b.PerLayer[i]; got != (entry{m.name, m.unit, m.better}) {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, got, m)
		}
	}
}
