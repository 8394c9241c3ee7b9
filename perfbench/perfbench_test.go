package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		maxQ float64
		want float64
	}{
		{5, 0.99, 0.5},     // even the median has too few beyond it
		{99, 0.99, 0.5},    // p90 would leave 9 beyond
		{100, 0.99, 0.9},   // p90 leaves exactly 10
		{999, 0.99, 0.9},   // p99 would leave 9
		{1000, 0.99, 0.99}, // p99 leaves exactly 10
		{100000, 0.99, 0.99},
		{100000, 0.999, 0.999},
		{100000, 0.9, 0.9}, // capped by the workload
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, c.maxQ); got != c.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.maxQ, got, c.want)
		}
		if q := tailQuantile(c.n, c.maxQ); q > 0.5 && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, q*100, beyond(c.n, q))
		}
	}
}

func TestQuantileCountsFailuresAsMissingTheLimit(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(append([]float64(nil), xs...), 0.99); got != 99 {
		t.Fatalf("p99 of 1..100 = %v, want 99", got)
	}
	xs[0], xs[1] = math.Inf(1), math.Inf(1) // two failed requests
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failed = %v, want +Inf", got)
	}
}

func TestPartQuantileIgnoresABurstInFewParts(t *testing.T) {
	xs := make([]float64, 700)
	for i := range xs {
		xs[i] = float64(i % 10) // p90 of every part: 8
	}
	for i := 0; i < 200; i++ { // a burst over the first two of seven parts
		xs[i] = 100
	}
	if got := partQuantile(xs, 7, 0.9); got != 8 {
		t.Errorf("partQuantile = %v, want 8", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.9); got != 100 {
		t.Errorf("whole-window p90 = %v, want the burst's 100", got)
	}
	if xs[0] != 100 || xs[699] != 9 {
		t.Error("partQuantile reordered its input")
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, {30, 60}, // overlap: 10..60 counts once
		{20, 25},   // nested in the first
		{90, 120},  // outlives the parent: only 90..100 counts
		{-5, 5},    // starts before the parent: only 0..5 counts
		{200, 300}, // outside the parent
	}
	if got := selfTime(parent, children); got != 35 {
		t.Fatalf("selfTime = %d, want 35 (100 - 5 - 50 - 10)", got)
	}
	if got := unionLen([]interval{{0, 10}, {5, 15}, {20, 30}}); got != 25 {
		t.Fatalf("unionLen = %d, want 25", got)
	}
}

func TestRootStatsSplitsSelfAndBlockingTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "SampleInto", Start: 0, End: 100},
		{ID: 2, Name: "rpc.SampleNeighbors", Start: 10, End: 50, Parent: 1},
		{ID: 3, Name: "rpc.SampleNeighbors", Start: 20, End: 60, Parent: 1},
		{ID: 4, Name: "SampleInto", Start: 200, End: 210},
	}
	n, total, self, blocking := rootStats(spans, "SampleInto")
	if n != 2 || total != 110 || self != 60 || blocking != 50 {
		t.Fatalf("rootStats = %d, %d, %d, %d; want 2, 110, 60, 50", n, total, self, blocking)
	}
	if self+blocking != total {
		t.Fatalf("self %d + blocking %d != total %d", self, blocking, total)
	}
}

func TestDispatchTimesFromDueTimeAndReportsLag(t *testing.T) {
	// The schedule started 50ms ago, so the dispatcher is already 50ms
	// behind: every request's latency must include that lag.
	start := time.Now().Add(-50 * time.Millisecond)
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	lat, late := dispatch(start, due, 16, func(int) bool { return true })
	for i := range due {
		if late[i] < 45 {
			t.Errorf("request %d: lag %.2f ms, want >= 45", i, late[i])
		}
		if lat[i] < late[i] {
			t.Errorf("request %d: latency %.2f ms below its dispatch lag %.2f ms", i, lat[i], late[i])
		}
	}
}

func TestDispatchCountsRefusedAndFailedRequests(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 40 * time.Millisecond}
	lat, _ := dispatch(time.Now(), due, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(20 * time.Millisecond) // holds the only in-flight slot
		}
		return i != 3
	})
	if math.IsInf(lat[0], 1) || lat[0] < 20 {
		t.Errorf("request 0: latency %.2f ms, want >= 20", lat[0])
	}
	for _, i := range []int{1, 2} {
		if !math.IsInf(lat[i], 1) {
			t.Errorf("request %d came due with no free slot: latency %.2f ms, want +Inf (refused)", i, lat[i])
		}
	}
	if !math.IsInf(lat[3], 1) {
		t.Errorf("request 3 failed: latency %.2f ms, want +Inf", lat[3])
	}
}

func TestLagGrowthComparesFirstAndLastQuarter(t *testing.T) {
	if g := lagGrowth([]float64{1, 1, 5, 5, 1, 1, 1, 1}); g != 0 {
		t.Errorf("steady lag: growth %v, want 0", g)
	}
	if g := lagGrowth([]float64{0, 0, 1, 2, 3, 4, 6, 8}); g != 7 {
		t.Errorf("growing lag: growth %v, want 7", g)
	}
}

func TestMaxRateInterpolatesBetweenRungs(t *testing.T) {
	rs := []rungResult{
		{rate: 1000, tail: 10, meets: true},
		{rate: 2000, tail: 50, meets: true},
		{rate: 4000, tail: 200, meets: false},
		{rate: 8000, tail: 20, meets: true}, // after the first failure: ignored
	}
	// The limit (100) lies half way between 50 and 200 on a log scale.
	if got := maxRate(rs); math.Abs(got-2000*math.Sqrt2) > 1e-6 {
		t.Errorf("maxRate = %v, want %v", got, 2000*math.Sqrt2)
	}
	rs[0].meets = false
	if got := maxRate(rs[:1]); got != 0 {
		t.Errorf("maxRate with no rung met = %v, want 0", got)
	}
	rs[0].meets, rs[1].meets, rs[2].meets = true, true, true
	if got := maxRate(rs[:3]); got != 4000 {
		t.Errorf("maxRate with every rung met = %v, want 4000", got)
	}
}

func TestGeneratedInputsDependOnlyOnSeed(t *testing.T) {
	const vertices = 22000
	if a, b := genSampleInputs(7, vertices, 64), genSampleInputs(7, vertices, 64); !reflect.DeepEqual(a, b) {
		t.Error("sample inputs differ for one seed")
	}
	if a, b := genSampleInputs(7, vertices, 64), genSampleInputs(8, vertices, 64); reflect.DeepEqual(a, b) {
		t.Error("sample inputs equal for different seeds")
	}
	if a, b := genServeSchedule(7, vertices, time.Second), genServeSchedule(7, vertices, time.Second); !reflect.DeepEqual(a, b) {
		t.Error("serve schedule differs for one seed")
	}
	if a, b := genServeSchedule(7, vertices, time.Second), genServeSchedule(8, vertices, time.Second); reflect.DeepEqual(a, b) {
		t.Error("serve schedules equal for different seeds")
	}
	if a, b := genWarmItems(7, vertices), genWarmItems(7, vertices); !reflect.DeepEqual(a, b) {
		t.Error("warm-up requests differ for one seed")
	}
}

// runSeconds is BENCHMARK.json's run_seconds.
func runSeconds(t *testing.T) float64 {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.RunSeconds
}

func TestServeScheduleShape(t *testing.T) {
	d := runSeconds(t)
	rungs := genServeSchedule(3, 1000, time.Duration(d*float64(time.Second)))
	if want := 1 + len(serveLadder); len(rungs) != want {
		t.Fatalf("%d rungs, want %d", len(rungs), want)
	}
	ladderSecs := d * (1 - serveNominalShare) / float64(len(serveLadder))
	for r, rung := range rungs {
		rate, secs := serveNominalRate, d*serveNominalShare
		if r > 0 {
			rate, secs = serveLadder[r-1], ladderSecs
		}
		if rung.rate != rate {
			t.Errorf("rung %d: rate %v, want %v", r, rung.rate, rate)
		}
		if want := int(rate * secs); len(rung.items) != want {
			t.Errorf("rung %d: %d requests, want %d", r, len(rung.items), want)
		}
		updates := 0
		for i, it := range rung.items {
			if i > 0 && it.at <= rung.items[i-1].at {
				t.Fatalf("rung %d: due times not increasing at %d", r, i)
			}
			if it.kind == kindUpdate {
				updates++
			}
		}
		if want := len(rung.items) / updateEvery; updates != want {
			t.Errorf("rung %d: %d updates, want %d (one per 10 lookups)", r, updates, want)
		}
		// At the benchmark's run_seconds, every rung's verdict is on a p99
		// with at least ten lookups beyond it, and every part of the
		// nominal rung has its p90 with ten beyond.
		if q := tailQuantile(len(rung.items)-updates, 0.99); q != 0.99 {
			t.Errorf("rung %d: %d lookups put the verdict on p%g, not p99", r, len(rung.items)-updates, q*100)
		}
		if part := (len(rung.items) - updates) / serveNominalParts; r == 0 && tailQuantile(part, tailMax) != tailMax {
			t.Errorf("nominal rung: %d lookups per part put the tail below p%g", part, tailMax*100)
		}
	}
}

// fakeTransport is a transport with the Kicker and RetryStats capabilities.
type fakeTransport struct {
	cluster.Transport
	kicked []int
}

func (f *fakeTransport) Kick(part int)    { f.kicked = append(f.kicked, part) }
func (f *fakeTransport) Retries() int64   { return 7 }
func (f *fakeTransport) FastFails() int64 { return 3 }

func TestTracedTransportForwardsCapabilities(t *testing.T) {
	inner := &fakeTransport{}
	tt := newTracedTransport(inner, newTracer())
	var tr cluster.Transport = tt
	k, ok := tr.(cluster.Kicker)
	if !ok {
		t.Fatal("traced transport does not implement cluster.Kicker")
	}
	k.Kick(1)
	if !reflect.DeepEqual(inner.kicked, []int{1}) {
		t.Errorf("Kick reached the inner transport as %v, want [1]", inner.kicked)
	}
	rs, ok := tr.(cluster.RetryStats)
	if !ok {
		t.Fatal("traced transport does not implement cluster.RetryStats")
	}
	if rs.Retries() != 7 || rs.FastFails() != 3 {
		t.Errorf("RetryStats = %d, %d; want 7, 3", rs.Retries(), rs.FastFails())
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	// serve-open's why records its schedule and limit.
	for _, w := range spec.Workloads {
		if w.Name != "serve-open" {
			continue
		}
		for _, part := range []string{
			fmt.Sprintf("Zipf(%g)", serveZipfS),
			fmt.Sprintf("nominal %g req/s", serveNominalRate),
			fmt.Sprintf("%g-%g req/s", serveLadder[0], serveLadder[len(serveLadder)-1]),
			fmt.Sprintf("p99 limit %g ms", serveP99Limit),
		} {
			if !strings.Contains(w.Why, part) {
				t.Errorf("serve-open why %q does not record %q", w.Why, part)
			}
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func TestTracerRecordsChildrenFromManyGoroutines(t *testing.T) {
	tr := newTracer()
	id, start := tr.begin(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := tr.now()
				tr.record("rpc.SampleNeighbors", s, tr.now(), false)
			}
		}()
	}
	wg.Wait()
	tr.end("SampleInto", id, start)
	spans := tr.snapshot()
	if len(spans) != 801 {
		t.Fatalf("%d spans, want 801", len(spans))
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("span id %d used twice", s.ID)
		}
		ids[s.ID] = true
		if s.Name != "SampleInto" && (s.Parent != id || s.Op != 1) {
			t.Fatalf("child span %+v not under root %d of op 1", s, id)
		}
	}
}

func TestRelayCountsBytesBothWays(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	done := make(chan struct{})
	go func() { // echo server: replies with what it reads
		defer close(done)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(c, c)
		c.Close()
	}()
	r, err := newRelay(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("hello, shard")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	c.Close()
	r.Close()
	<-done
	if tx, rx := r.tx.Load(), r.rx.Load(); tx != 12 || rx != 12 {
		t.Fatalf("relay counted %d bytes out, %d back; want 12, 12", tx, rx)
	}
}
