package telemetry

import (
	"math"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/nfv/chain"
	"nfvxai/internal/nfv/traffic"
	"nfvxai/internal/nfv/vnf"
)

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 5; i++ {
		w.Push(Record{TimeSec: float64(i)})
	}
	if w.Len() != 3 {
		t.Fatalf("window len %d", w.Len())
	}
	if w.At(0).TimeSec != 2 || w.Last().TimeSec != 4 {
		t.Fatalf("window contents wrong: %v..%v", w.At(0).TimeSec, w.Last().TimeSec)
	}
	if NewWindow(0).Cap() != 1 {
		t.Fatal("window floor")
	}
}

func record(tsec, pps float64, hour float64, groups ...chain.GroupResult) Record {
	return Record{
		TimeSec:    tsec,
		HourOfDay:  hour,
		Demand:     traffic.Demand{PPS: pps, BPS: pps * 500, AvgPktBytes: 500, NewFlows: int(pps / 100), ActiveFlows: int(pps / 10)},
		Chain:      chain.Result{PerGroup: groups, LatencyMs: 2, LossRate: 0.001},
		TotalCores: 8,
	}
}

func TestFeatureSchemaMatchesValues(t *testing.T) {
	names := FeatureNames([]string{"fw", "nat"})
	w := NewWindow(8)
	gr := []chain.GroupResult{
		{Name: "fw", Kind: vnf.Firewall, Replicas: 2, Utilization: 0.5, LatencyMs: 1, StateFactor: 1},
		{Name: "nat", Kind: vnf.NAT, Replicas: 1, Utilization: 0.3, LatencyMs: 0.5, StateFactor: 1.2},
	}
	w.Push(record(0, 1000, 6, gr...))
	w.Push(record(5, 2000, 6.1, gr...))
	feats := Features(w)
	if len(feats) != len(names) {
		t.Fatalf("features %d != names %d", len(feats), len(names))
	}
	get := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return feats[i]
			}
		}
		t.Fatalf("no feature %q", name)
		return 0
	}
	if get("pps") != 2000 {
		t.Fatalf("pps = %v", get("pps"))
	}
	if get("pps_lag1") != 1000 {
		t.Fatalf("pps_lag1 = %v", get("pps_lag1"))
	}
	if get("pps_delta") != 1000 {
		t.Fatalf("pps_delta = %v", get("pps_delta"))
	}
	if get("util_fw") != 0.5 || get("util_nat") != 0.3 {
		t.Fatal("per-group utils wrong")
	}
	if get("replicas_nat") != 1 {
		t.Fatal("replicas wrong")
	}
	if get("total_cores") != 8 {
		t.Fatal("total_cores wrong")
	}
	// hour encoding is on the unit circle.
	hs, hc := get("hour_sin"), get("hour_cos")
	if math.Abs(hs*hs+hc*hc-1) > 1e-9 {
		t.Fatal("hour encoding not on unit circle")
	}
}

func TestFeaturesSingleRecordLagFallback(t *testing.T) {
	w := NewWindow(4)
	w.Push(record(0, 1500, 12))
	feats := Features(w)
	names := FeatureNames(nil)
	for i, n := range names {
		if n == "pps_lag1" && feats[i] != 1500 {
			t.Fatalf("lag fallback = %v", feats[i])
		}
		if n == "pps_delta" && feats[i] != 0 {
			t.Fatalf("delta fallback = %v", feats[i])
		}
	}
}

func TestExtractorPairsFeaturesWithNextEpochTarget(t *testing.T) {
	e := NewExtractor(TargetBottleneckUtil, 0, []string{"fw"})
	mk := func(util float64) Record {
		return record(0, 1000, 0, chain.GroupResult{Name: "fw", Replicas: 1, Utilization: util})
	}
	e.Push(mk(0.2))
	if e.Dataset().Len() != 0 {
		t.Fatal("first push should produce no row")
	}
	e.Push(mk(0.9))
	if e.Dataset().Len() != 1 {
		t.Fatalf("rows = %d", e.Dataset().Len())
	}
	// The target of the first row is the *second* epoch's util.
	if e.Dataset().Y[0] != 0.9 {
		t.Fatalf("target = %v want 0.9 (next epoch)", e.Dataset().Y[0])
	}
	e.Push(mk(0.1))
	if e.Dataset().Y[1] != 0.1 {
		t.Fatalf("second target = %v", e.Dataset().Y[1])
	}
}

func TestExtractorViolationTarget(t *testing.T) {
	e := NewExtractor(TargetViolation, 5, []string{"fw"})
	if e.Dataset().Task != dataset.Classification {
		t.Fatal("violation extractor should be classification")
	}
	ok := record(0, 100, 0, chain.GroupResult{Name: "fw"})
	bad := ok
	bad.Chain.LatencyMs = 10 // above SLO 5ms
	e.Push(ok)
	e.Push(bad)
	e.Push(ok)
	y := e.Dataset().Y
	if y[0] != 1 {
		t.Fatalf("violation not labeled: %v", y)
	}
	if y[1] != 0 {
		t.Fatalf("non-violation mislabeled: %v", y)
	}
}

func TestExtractorLatencyTarget(t *testing.T) {
	e := NewExtractor(TargetChainLatency, 0, nil)
	r1 := record(0, 100, 0)
	r2 := record(5, 100, 0)
	r2.Chain.LatencyMs = 42
	e.Push(r1)
	e.Push(r2)
	if e.Dataset().Y[0] != 42 {
		t.Fatalf("latency target = %v", e.Dataset().Y[0])
	}
	if e.String() == "" {
		t.Fatal("String empty")
	}
}

// TestWindowRingEdgeCases exercises the ring buffer at and past capacity:
// ordering across many wraparounds, Last on a partially filled window,
// and the panics on empty/out-of-range access.
func TestWindowRingEdgeCases(t *testing.T) {
	w := NewWindow(4)
	if w.Len() != 0 || w.Cap() != 4 {
		t.Fatalf("fresh window len=%d cap=%d", w.Len(), w.Cap())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Last on empty window did not panic")
			}
		}()
		w.Last()
	}()
	// Partially filled: Last tracks the newest record, At the oldest.
	w.Push(Record{TimeSec: 0})
	w.Push(Record{TimeSec: 1})
	if w.Len() != 2 || w.Last().TimeSec != 1 || w.At(0).TimeSec != 0 {
		t.Fatalf("partial window: len=%d last=%v at0=%v", w.Len(), w.Last().TimeSec, w.At(0).TimeSec)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At past Len did not panic")
			}
		}()
		w.At(2)
	}()
	// Push far past capacity: the window must always hold the newest Cap
	// records in order, across many head wraparounds.
	for i := 2; i < 103; i++ {
		w.Push(Record{TimeSec: float64(i)})
		if w.Len() != minInt(i+1, 4) {
			t.Fatalf("len %d after %d pushes", w.Len(), i+1)
		}
		for j := 0; j < w.Len(); j++ {
			want := float64(i - w.Len() + 1 + j)
			if w.At(j).TimeSec != want {
				t.Fatalf("after push %d: At(%d)=%v want %v", i, j, w.At(j).TimeSec, want)
			}
		}
		if w.Last().TimeSec != float64(i) {
			t.Fatalf("last %v after push %d", w.Last().TimeSec, i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At(-1) did not panic")
			}
		}()
		w.At(-1)
	}()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestExtractorMaxRowsBounds checks the streaming accumulation: with
// MaxRows set, the dataset keeps only the newest rows (within the trim
// slack) and the kept rows are the most recent examples.
func TestExtractorMaxRowsBounds(t *testing.T) {
	e := NewExtractor(TargetChainLatency, 0, nil)
	e.MaxRows = 20
	for i := 0; i < 200; i++ {
		r := record(float64(i*5), 100, 0)
		r.Chain.LatencyMs = float64(i)
		added := e.Push(r)
		if (i == 0) == added {
			t.Fatalf("push %d reported added=%v", i, added)
		}
	}
	ds := e.Dataset()
	if ds.Len() < 20 || ds.Len() > 25 {
		t.Fatalf("bounded dataset has %d rows, want [20, 25]", ds.Len())
	}
	// Targets are the most recent latencies, contiguous and in order.
	last := ds.Y[len(ds.Y)-1]
	if last != 199 {
		t.Fatalf("newest target %v, want 199", last)
	}
	for i, y := range ds.Y {
		if want := last - float64(len(ds.Y)-1-i); y != want {
			t.Fatalf("row %d target %v, want %v", i, y, want)
		}
	}
	// Unbounded extractor keeps everything.
	e2 := NewExtractor(TargetChainLatency, 0, nil)
	for i := 0; i < 50; i++ {
		e2.Push(record(float64(i*5), 100, 0))
	}
	if e2.Dataset().Len() != 49 {
		t.Fatalf("unbounded rows %d, want 49", e2.Dataset().Len())
	}
}
