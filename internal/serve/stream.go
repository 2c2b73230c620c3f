// The live explanation stream: GET /v1/models/{name}/stream?feed={feed}
// serves Server-Sent Events pairing every telemetry record on a feed with
// the model's prediction and its top-k attribution. Records are
// micro-batched — whatever has queued while the previous batch was being
// explained is explained together through the batch fast path — so the
// stream's explanation throughput scales with the batch evaluator instead
// of per-record explainer latency.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/xai"
)

// maxStreamBatch caps the SSE micro-batch (and so the per-flush latency).
const maxStreamBatch = 64

// StreamHello is the first SSE event ("hello") on a stream.
type StreamHello struct {
	Model  string `json:"model"`
	Feed   string `json:"feed"`
	Method string `json:"method"`
	// Batch is the negotiated micro-batch cap.
	Batch int `json:"batch"`
}

// StreamEvent is one "record" SSE event: a telemetry record scored and
// explained.
type StreamEvent struct {
	// Seq numbers events per stream from 1.
	Seq       uint64  `json:"seq"`
	TimeSec   float64 `json:"time_sec"`
	HourOfDay float64 `json:"hour_of_day"`
	// Prediction / Base / Contributions mirror the explain endpoint.
	Prediction    float64        `json:"prediction"`
	Base          float64        `json:"base"`
	Contributions []Contribution `json:"contributions"`
}

// sseEvent writes one SSE frame.
func sseEvent(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, key string, def int) (int, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, s)
	}
	return v, nil
}

// handleModelStream streams per-record predictions and attributions for
// every record on the named feed. Query parameters: feed (required),
// method (default: the model's default explainer), topk (default 5),
// batch (micro-batch cap, default 16), limit (end the stream after N
// events; 0 streams until the client disconnects or the feed closes).
func (s *Server) handleModelStream(w http.ResponseWriter, r *http.Request, name string) {
	p, ok := s.lookup(w, name)
	if !ok {
		return
	}
	feedName := r.URL.Query().Get("feed")
	if feedName == "" {
		writeError(w, http.StatusBadRequest, "feed query parameter required")
		return
	}
	f, err := s.hub.Get(feedName)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := schemaMatches(p.Train.Names, f.Spec()); err != nil {
		writeError(w, http.StatusConflict, "model %q cannot consume feed %q: %v", name, feedName, err)
		return
	}
	topK, err := queryInt(r, "topk", 5)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if topK <= 0 {
		topK = 5
	}
	batch, err := queryInt(r, "batch", 16)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if batch < 1 {
		batch = 1
	}
	if batch > maxStreamBatch {
		batch = maxStreamBatch
	}
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, method, err := p.ExplainerFor(r.URL.Query().Get("method"), xai.Options{})
	if err != nil {
		writeErr(w, err)
		return
	}
	// Methods without the batch capability share one explainer instance
	// only sequentially; clamp their micro-batch to 1.
	if m, ok := xai.LookupMethod(method); ok && !m.Caps.SupportsBatch {
		batch = 1
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, errors.New("streaming unsupported by transport"))
		return
	}
	sub, cancelSub, err := f.Subscribe()
	if err != nil {
		writeErr(w, err)
		return
	}
	defer cancelSub()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if err := sseEvent(w, "hello", StreamHello{Model: name, Feed: feedName, Method: method, Batch: batch}); err != nil {
		return
	}
	flusher.Flush()

	ctx := r.Context()
	win := telemetry.NewWindow(8)
	var seq uint64
	recs := make([]telemetry.Record, 0, batch)
	xs := make([][]float64, 0, batch)
	feedClosed := false
	for !feedClosed {
		recs, xs = recs[:0], xs[:0]
		select {
		case <-ctx.Done():
			return
		case rec, ok := <-sub:
			if !ok {
				feedClosed = true
				break
			}
			win.Push(rec)
			recs = append(recs, rec)
			xs = append(xs, telemetry.Features(win))
		}
		// Micro-batch: drain whatever queued while we were waiting, up to
		// the cap; the batch then rides the matrix fast path together.
	drain:
		for len(recs) > 0 && len(recs) < batch {
			select {
			case rec, ok := <-sub:
				if !ok {
					feedClosed = true
					break drain
				}
				win.Push(rec)
				recs = append(recs, rec)
				xs = append(xs, telemetry.Features(win))
			default:
				break drain
			}
		}
		if len(recs) == 0 {
			continue
		}
		attrs, err := xai.ExplainBatchGated(ctx, e, xs, s.gate)
		if err != nil {
			_ = sseEvent(w, "error", map[string]string{"error": err.Error()})
			flusher.Flush()
			return
		}
		for i, attr := range attrs {
			seq++
			ev := StreamEvent{
				Seq:        seq,
				TimeSec:    recs[i].TimeSec,
				HourOfDay:  recs[i].HourOfDay,
				Prediction: attr.Value,
				Base:       attr.Base,
			}
			for _, j := range attr.TopK(topK) {
				ev.Contributions = append(ev.Contributions, Contribution{
					Feature: featureName(p.Train.Names, j),
					Phi:     attr.Phi[j],
				})
			}
			if err := sseEvent(w, "record", ev); err != nil {
				return
			}
			if limit > 0 && seq >= uint64(limit) {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
	}
}
