package traffic

import (
	"math"
	"testing"

	"nfvxai/internal/stats"
)

func TestDiurnalPeakVsTrough(t *testing.T) {
	p := Profile{BaseFPS: 100, DiurnalAmplitude: 0.8, PeakHour: 12, Seed: 1}
	g := NewGenerator(p)
	if peak := g.diurnal(12 * 3600); math.Abs(peak-1.8) > 1e-9 {
		t.Fatalf("peak multiplier %v want 1.8", peak)
	}
	if trough := g.diurnal(0); math.Abs(trough-0.2) > 1e-9 {
		t.Fatalf("trough multiplier %v want 0.2", trough)
	}
	// No amplitude: flat.
	flat := NewGenerator(Profile{BaseFPS: 10, Seed: 1})
	if flat.diurnal(6*3600) != 1 {
		t.Fatal("flat profile should have unit multiplier")
	}
}

func TestFlashCrowdWindow(t *testing.T) {
	p := Profile{
		BaseFPS:     10,
		FlashCrowds: []FlashCrowd{{StartSec: 100, DurationSec: 50, Multiplier: 5}},
		Seed:        2,
	}
	g := NewGenerator(p)
	if g.flash(99) != 1 || g.flash(150) != 1 {
		t.Fatal("flash active outside window")
	}
	if g.flash(100) != 5 || g.flash(149) != 5 {
		t.Fatal("flash inactive inside window")
	}
}

func TestMeanFlowRatePreserved(t *testing.T) {
	// Long-run average of new flows/sec should be ≈ BaseFPS regardless of
	// the burst overlay (the normalization property).
	for _, ratio := range []float64{1, 4} {
		g := NewGenerator(Profile{BaseFPS: 50, BurstRatio: ratio, BurstRate: 0.5, Seed: 3})
		var total float64
		const epochs = 4000
		for i := 0; i < epochs; i++ {
			total += float64(g.Next(1).NewFlows)
		}
		mean := total / epochs
		if math.Abs(mean-50) > 5 {
			t.Fatalf("ratio %v: mean fps %v want ≈ 50", ratio, mean)
		}
	}
}

func TestBurstinessRaisesVariance(t *testing.T) {
	quiet := NewGenerator(Profile{BaseFPS: 50, BurstRatio: 1, Seed: 4})
	bursty := NewGenerator(Profile{BaseFPS: 50, BurstRatio: 8, BurstRate: 0.5, Seed: 4})
	var wq, wb stats.Welford
	for i := 0; i < 3000; i++ {
		wq.Add(float64(quiet.Next(1).NewFlows))
		wb.Add(float64(bursty.Next(1).NewFlows))
	}
	if wb.Variance() < 2*wq.Variance() {
		t.Fatalf("bursty variance %v not above quiet %v", wb.Variance(), wq.Variance())
	}
}

func TestDemandInternalConsistency(t *testing.T) {
	g := NewGenerator(Profile{BaseFPS: 200, DiurnalAmplitude: 0.5, PeakHour: 14, Seed: 5})
	var sawFlows bool
	for i := 0; i < 500; i++ {
		d := g.Next(1)
		if d.PPS < 0 || d.BPS < 0 || d.ActiveFlows < 0 {
			t.Fatalf("negative demand: %+v", d)
		}
		if d.PPS > 0 {
			if d.AvgPktBytes < 64 || d.AvgPktBytes > 1500 {
				t.Fatalf("avg packet %v outside [64, 1500]", d.AvgPktBytes)
			}
			if math.Abs(d.BPS-d.PPS*d.AvgPktBytes) > 1e-6*d.BPS {
				t.Fatalf("BPS %v != PPS*AvgPkt %v", d.BPS, d.PPS*d.AvgPktBytes)
			}
		}
		if d.NewFlows > 0 {
			sawFlows = true
		}
		if d.HourOfDay < 0 || d.HourOfDay >= 24 {
			t.Fatalf("hour %v", d.HourOfDay)
		}
	}
	if !sawFlows {
		t.Fatal("no flows generated in 500 epochs")
	}
}

func TestActiveFlowsTrackLoad(t *testing.T) {
	// With diurnal modulation, active flows at peak must exceed trough.
	g := NewGenerator(Profile{BaseFPS: 100, DiurnalAmplitude: 0.9, PeakHour: 12, Seed: 6})
	var troughActive, peakActive float64
	for i := 0; i < 24*360; i++ { // 24 h at 10 s epochs
		d := g.Next(10)
		switch {
		case d.HourOfDay >= 11 && d.HourOfDay < 13:
			peakActive += float64(d.ActiveFlows)
		case d.HourOfDay >= 23 || d.HourOfDay < 1:
			troughActive += float64(d.ActiveFlows)
		}
	}
	if peakActive < 3*troughActive {
		t.Fatalf("peak active %v not well above trough %v", peakActive, troughActive)
	}
}

func TestDeterministicSeed(t *testing.T) {
	a := NewGenerator(Profile{BaseFPS: 80, DiurnalAmplitude: 0.3, BurstRatio: 3, Seed: 7})
	b := NewGenerator(Profile{BaseFPS: 80, DiurnalAmplitude: 0.3, BurstRatio: 3, Seed: 7})
	for i := 0; i < 200; i++ {
		da, db := a.Next(1), b.Next(1)
		if da != db {
			t.Fatalf("same seed diverged at epoch %d: %+v vs %+v", i, da, db)
		}
	}
}

func TestHeavyTailFlowSizes(t *testing.T) {
	// Pareto flow sizes: max/mean ratio must be large over many
	// samples (heavy tail), unlike an exponential.
	rng := NewGenerator(Profile{BaseFPS: 1, Seed: 9}).rng
	var w stats.Welford
	maxV := 0.0
	for i := 0; i < 20000; i++ {
		v := flowPackets.Sample(rng)
		w.Add(v)
		if v > maxV {
			maxV = v
		}
	}
	if maxV/w.Mean() < 20 {
		t.Fatalf("tail too light: max/mean = %v", maxV/w.Mean())
	}
}
