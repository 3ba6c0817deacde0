package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p90 of 100 samples is rank 90 with exactly 10 beyond it.
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	// p95 has 5 beyond it: refused.
	if _, err := percentile(xs, 95); err == nil {
		t.Fatal("p95 of 100 samples accepted with 5 samples beyond it")
	}
	// tail falls back to the highest percentile with 10 beyond.
	tv, err := tail(xs, 99)
	if err != nil || tv.Value != 90 || tv.P != 90 || tv.N != 100 {
		t.Fatalf("tail(99) = %+v, %v; want value 90 at p90 of 100", tv, err)
	}
	if _, err := tail(nil, 99); err == nil {
		t.Fatal("tail of no samples accepted")
	}
}

func TestOpenLoopMeasuresFromDue(t *testing.T) {
	// One worker, an op of 20ms and a request due every 5ms: the loop
	// falls behind, and each request's latency counts the time it
	// waited for the worker, not only its own 20ms.
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	ss := openLoop(context.Background(), due, 1, func(int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	last := ss[len(ss)-1]
	if last.due != due[len(due)-1] {
		t.Fatalf("last sample due %v, want %v", last.due, due[len(due)-1])
	}
	if last.lag() < 80*time.Millisecond {
		t.Fatalf("last lag %v, want >= 80ms: the generator fell 7x15ms behind", last.lag())
	}
	if last.latency() < last.lag()+20*time.Millisecond || last.latency() != last.done-last.due {
		t.Fatalf("latency %v with lag %v: want due-to-done, at least lag plus the op", last.latency(), last.lag())
	}
	if first := ss[0]; first.lag() > 10*time.Millisecond {
		t.Fatalf("first request lag %v, want about 0", first.lag())
	}
	// With enough workers nobody waits.
	ss = openLoop(context.Background(), due, len(due), func(int) error { return nil })
	for _, s := range ss {
		if s.lag() > 10*time.Millisecond {
			t.Fatalf("lag %v with a free worker", s.lag())
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [20,40): together they
		// cover [10,50).
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		// A child sticking out of the parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild is the child's business, not the parent's.
		{ID: 5, Parent: 2, Name: "g", Start: 15 * ms, End: 25 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 50 * time.Millisecond, // 100 - [10,50) - [90,100)
		2: 20 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestOracleFlagsOneByteDifference(t *testing.T) {
	src := "<r>{ $ROOT/a }</r>"
	good := []byte("<r><a>xyz</a></r>")
	sum := sha256.Sum256(good)
	orc, err := newOracle(map[string]string{refKey(src, 3): hex.EncodeToString(sum[:])})
	if err != nil {
		t.Fatal(err)
	}
	if !orc.ok(src, 3, good) {
		t.Fatal("reference output rejected")
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 1
	if orc.ok(src, 3, bad) {
		t.Fatal("output differing in one byte accepted")
	}
	if orc.ok(src, 3, good[:len(good)-1]) {
		t.Fatal("output one byte short accepted")
	}
	if orc.ok(src, 4, good) {
		t.Fatal("output accepted for a document without a reference")
	}
}

func TestInputsAreSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, 7)
		c, _ := makeInputs(w, 8)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: same seed, different inputs", w)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: different seeds, same inputs", w)
		}
	}
}

func TestEvalCheckerChurnedVersions(t *testing.T) {
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	a := querySpec{Name: "a", Src: "A"}
	b, b2 := querySpec{Name: "b", Src: "B"}, querySpec{Name: "b", Src: "B2"}
	orc, err := newOracle(map[string]string{
		refKey("A", 0): digest("<a/>"), refKey("B", 0): digest("<b/>"), refKey("B2", 0): digest("<b2/>"),
	})
	if err != nil {
		t.Fatal(err)
	}
	chk := newEvalChecker(orc, []querySpec{a, b}, []querySpec{b2})
	reply := func(results string) []byte {
		return []byte(`{"duration_us": 1500, "results": [` + results + `]}`)
	}
	for _, tc := range []struct {
		name    string
		results string
		ok      bool
	}{
		{"old version", `{"query":"a","output":"<a/>"},{"query":"b","output":"<b/>"}`, true},
		{"new version", `{"query":"a","output":"<a/>"},{"query":"b","output":"<b2/>"}`, true},
		{"churned name deleted", `{"query":"a","output":"<a/>"}`, true},
		{"churned name wrong", `{"query":"a","output":"<a/>"},{"query":"b","output":"<a/>"}`, false},
		{"unchurned name missing", `{"query":"b","output":"<b/>"}`, false},
		{"unchurned name wrong", `{"query":"a","output":"<b/>"}`, false},
		{"query error", `{"query":"a","output":"<a/>","error":"boom"}`, false},
	} {
		d, _, err := chk.check(0, reply(tc.results), 1)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
		if err == nil && d != 1500*time.Microsecond {
			t.Errorf("%s: pass time %v, want 1.5ms", tc.name, d)
		}
	}
}

func TestTimingsInRefs(t *testing.T) {
	ts := []timing{{ms: 30}, {ms: 10}, {ms: 20}}
	stamp(ts, 8, 12)
	for _, x := range ts {
		if x.ref != 10 {
			t.Fatalf("stamped ref %v, want the mean of the blocks around it, 10", x.ref)
		}
	}
	if got := inRefs(ts); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("inRefs = %v, want sorted [1 2 3]", got)
	}
	if got := rawMs(ts); got[0] != 10 || got[2] != 30 {
		t.Fatalf("rawMs = %v, want sorted ms", got)
	}
	if d := newHostRef().once(); d <= 0 {
		t.Fatalf("reference work took %v", d)
	}
}

func TestQuietRunsOnlyWhileIdle(t *testing.T) {
	q := &quiet{}
	ran := false
	work := func() time.Duration { ran = true; return time.Millisecond }
	if _, ok := q.idleRun(work); !ok || !ran {
		t.Fatal("reference refused on an idle server")
	}
	q.begin()
	ran = false
	if _, ok := q.idleRun(work); ok || ran {
		t.Fatal("reference ran with a request in flight")
	}
	q.end()
	// A request sent while the reference runs spoils the sample.
	if _, ok := q.idleRun(func() time.Duration { q.begin(); q.end(); return time.Millisecond }); ok {
		t.Fatal("sample kept although a request was sent while it ran")
	}
}
