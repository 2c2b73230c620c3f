package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls on one request must charge the stall to the
// requests scheduled behind it: they are timed from when they were due,
// not from when the generator finally got to send them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	// Ten requests due 10 ms apart on one connection: the first stalls,
	// so the other nine all wait for it.
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	res := openLoop(due, 1, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		// Nothing completes before the stall ends, stall after the start;
		// request i was due at due[i].
		if min := stall - due[i]; r.Latency < min {
			t.Errorf("request %d: latency %v, want >= %v (stall charged from the due time)", i, r.Latency, min)
		}
		if i > 0 && r.Late < stall-due[i]-50*time.Millisecond {
			t.Errorf("request %d: sent %v late, want about %v", i, r.Late, stall-due[i])
		}
	}
}

// The tail percentile is the highest ladder entry with at least ten
// samples beyond it, and the next ladder entry would have fewer.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 50}, // too few for any: the median
		{34, 70},
		{40, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{1000, 99},
		{10000, 99.9},
		{100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for n := 20; n <= 50000; n += 7 {
		q := tailPercentile(n)
		if beyond := n - nearestRank(q, n); beyond < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, q, beyond)
		}
		i := sort.SearchFloat64s(tailLadder, q)
		if i+1 < len(tailLadder) && n-nearestRank(tailLadder[i+1], n) >= 10 {
			t.Fatalf("n=%d: p%g chosen but p%g also has ten samples beyond it", n, q, tailLadder[i+1])
		}
	}
}

func TestWindowedTailAndRate(t *testing.T) {
	// 300 requests: three windows of 100, each with p90 at its 90th value.
	lat := make([]float64, 300)
	for i := range lat {
		lat[i] = float64(i%100 + 1 + 1000*(i/100))
	}
	if w, q := tailPlan(len(lat)); w != 3 || q != 90 {
		t.Fatalf("tailPlan(300) = %d windows at p%g, want 3 at p90", w, q)
	}
	if got := windowedTail(lat); got != 1090 {
		t.Errorf("windowedTail = %g, want the middle window's p90, 1090", got)
	}

	// Too few completions for windows: each worker's completions over its
	// own busy span, summed.
	done := [][]time.Duration{{time.Second, 2 * time.Second}, {4 * time.Second}}
	if got := closedRate(done); got != 1.25 {
		t.Errorf("closedRate = %g, want 2/2s + 1/4s = 1.25", got)
	}
	// Three 1-s windows of 1000, 2000 and 1500 completions: the median.
	var one []time.Duration
	for k, n := range []int{1000, 2000, 1500} {
		for i := 1; i <= n; i++ {
			one = append(one, time.Duration(k)*time.Second+time.Duration(i)*time.Second/time.Duration(n))
		}
	}
	if got := closedRate([][]time.Duration{one}); math.Abs(got-1500) > 1 {
		t.Errorf("closedRate = %g, want about 1500", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(append([]float64(nil), xs...), 90); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := median(append([]float64(nil), xs...)); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
}

// Every generator reproduces exactly from its seed, and a different seed
// gives a different stream.
func TestGeneratorsReproduceFromSeed(t *testing.T) {
	draw := func(seed int64) []int {
		z := zipfStream(seed, 864)
		out := make([]int, 2000)
		for i := range out {
			out[i] = z()
		}
		return out
	}
	if a, b := draw(7), draw(7); !reflect.DeepEqual(a, b) {
		t.Error("zipf stream differs for the same seed")
	}
	if a, b := draw(7), draw(8); reflect.DeepEqual(a, b) {
		t.Error("zipf stream identical for different seeds")
	}
	// Zipf popularity: rank 0 is drawn most.
	counts := map[int]int{}
	for _, r := range draw(7) {
		counts[r]++
	}
	for r, c := range counts {
		if c > counts[0] {
			t.Errorf("rank %d drawn %d times, more than rank 0 (%d)", r, c, counts[0])
		}
	}

	hot := hotSet(3, 864, 256)
	if !reflect.DeepEqual(hot, hotSet(3, 864, 256)) {
		t.Error("hot set differs for the same seed")
	}
	seen := map[int]bool{}
	for _, r := range hot {
		if r < 0 || r >= 864 || seen[r] {
			t.Fatalf("hot set row %d out of range or repeated", r)
		}
		seen[r] = true
	}
	if reflect.DeepEqual(hot, hotSet(4, 864, 256)) {
		t.Error("hot set identical for different seeds")
	}

	p := permutation(5, 4319)
	if !reflect.DeepEqual(p, permutation(5, 4319)) {
		t.Error("permutation differs for the same seed")
	}
	sorted := append([]int(nil), p...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("permutation is missing %d", i)
		}
	}

	s := poissonSchedule(9, 7, 500)
	if !reflect.DeepEqual(s, poissonSchedule(9, 7, 500)) {
		t.Error("arrival schedule differs for the same seed")
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}

	a, b := newSampler(2, 0.1, 5), newSampler(2, 0.1, 5)
	for i := 0; i < 1000; i++ {
		if a.take() != b.take() {
			t.Fatal("sampler differs for the same seed")
		}
	}
	if a.taken != 5 {
		t.Errorf("sampler took %d, want its cap of 5", a.taken)
	}
}
