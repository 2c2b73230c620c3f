package xai

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// sumExplainer attributes each feature its own value (base 0).
type sumExplainer struct{}

func (sumExplainer) Explain(_ context.Context, x []float64) (Attribution, error) {
	if len(x) == 0 {
		return Attribution{}, errors.New("empty")
	}
	var v float64
	for _, f := range x {
		v += f
	}
	return Attribution{Phi: append([]float64(nil), x...), Value: v}, nil
}

func TestExplainBatchOrderAndValues(t *testing.T) {
	xs := make([][]float64, 50)
	for i := range xs {
		xs[i] = []float64{float64(i), 1}
	}
	attrs, err := ExplainBatch(context.Background(), sumExplainer{}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != len(xs) {
		t.Fatalf("got %d attributions", len(attrs))
	}
	for i, a := range attrs {
		if want := float64(i) + 1; a.Value != want {
			t.Fatalf("attrs[%d].Value = %v want %v", i, a.Value, want)
		}
		if a.Phi[0] != float64(i) {
			t.Fatalf("attrs[%d] out of order", i)
		}
	}
}

func TestExplainBatchEmpty(t *testing.T) {
	attrs, err := ExplainBatch(context.Background(), sumExplainer{}, nil)
	if err != nil || attrs != nil {
		t.Fatalf("empty batch: %v, %v", attrs, err)
	}
}

func TestExplainBatchGated(t *testing.T) {
	xs := make([][]float64, 40)
	for i := range xs {
		xs[i] = []float64{float64(i)}
	}
	gate := make(chan struct{}, 3)
	attrs, err := ExplainBatchGated(context.Background(), sumExplainer{}, xs, gate)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range attrs {
		if a.Value != float64(i) {
			t.Fatalf("attrs[%d].Value = %v", i, a.Value)
		}
	}
	// Two batches sharing one gate still complete (no token leak).
	if _, err := ExplainBatchGated(context.Background(), sumExplainer{}, xs[:5], gate); err != nil {
		t.Fatal(err)
	}
	if got, err := ExplainBatchGated(context.Background(), sumExplainer{}, nil, gate); got != nil || err != nil {
		t.Fatalf("empty gated batch: %v, %v", got, err)
	}
	// Errors propagate with successful slots intact.
	bad := [][]float64{{1}, {}}
	attrs2, err := ExplainBatchGated(context.Background(), sumExplainer{}, bad, gate)
	if err == nil || attrs2[0].Value != 1 {
		t.Fatalf("gated error path: %v %v", attrs2, err)
	}
}

func TestExplainBatchError(t *testing.T) {
	xs := [][]float64{{1}, {}, {3}}
	attrs, err := ExplainBatch(context.Background(), sumExplainer{}, xs)
	if err == nil {
		t.Fatal("want error for empty instance")
	}
	if want := "instance 1"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	// Successful slots are still populated.
	if attrs[0].Value != 1 || attrs[2].Value != 3 {
		t.Fatalf("successful slots lost: %+v", attrs)
	}
}
