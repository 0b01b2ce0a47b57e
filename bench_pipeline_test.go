package deepdive_test

// BenchmarkPipelineThroughput measures end-to-end update throughput on a
// sustained multi-update stream — one iteration submits a burst of
// conflict-chained document inserts/deletes to the queue and waits for
// every ticket — comparing the stage-overlapped pipeline (grounding of
// batch N+1 concurrent with learning/inference of batch N) against the
// serialized queue (KB.SerializeUpdates). The documents are larger
// than the serving bench's (more mentions per sentence, so candidate
// generation joins quadratically more pairs) to give the grounding stage
// weight comparable to the finish stage — the regime the pipeline is
// for.
//
// The udf dimension selects the grounding-cost regime. udf=inproc keeps
// phrase() a pure in-process function: grounding and sampling are both
// CPU-bound, so the overlap only pays when spare cores exist (on a
// single-vCPU container the two modes tie — the stages timeslice one
// core). udf=extractor models the paper's deployment shape — feature
// extraction as external processes — by giving phrase() a fixed
// per-call round-trip latency; the pipeline overlaps batch N+1's
// extractor waits with batch N's sampling CPU, which pays on any core
// count. Results are recorded in BENCH_pipeline.json; run with
// `make bench-pipeline`.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"deepdive"
)

// extractorPhrase wraps phraseUDF with a fixed per-call latency,
// standing in for an out-of-process feature extractor.
func extractorPhrase(lat time.Duration) func([]string) string {
	return func(args []string) string {
		time.Sleep(lat)
		return phraseUDF(args)
	}
}

// wideDocUpdate inserts one document whose single sentence carries m
// person mentions: candidate generation grounds m·(m−1) ordered pairs.
func wideDocUpdate(i, m int) deepdive.Update {
	sid := fmt.Sprintf("bx%d", i)
	u := deepdive.Update{Inserts: map[string][]deepdive.Tuple{
		"Sentence": {{sid, "Pat and his wife Sam and further friends"}},
	}}
	for k := 0; k < m; k++ {
		mid := fmt.Sprintf("q%dm%d", i, k)
		u.Inserts["PersonMention"] = append(u.Inserts["PersonMention"],
			deepdive.Tuple{mid, sid, "E" + mid})
	}
	return u
}

func runPipelineThroughput(b *testing.B, serialized bool, opts ...deepdive.Option) {
	// At GOMAXPROCS=1 a goroutine parked in an extractor wait is only
	// rescheduled when the sampling loop gets preempted (~10ms quanta), so
	// the stages serialize no matter how the pipeline schedules them. Two
	// Ps let the OS interleave timer wakeups with sampling CPU — the
	// floor any real deployment clears; both modes run under the same
	// setting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// A larger sampling budget than the serving bench's: the toy graph is
	// tiny, so default-budget Gibbs passes finish in ~1ms and the finish
	// stage would be negligible next to grounding. The bigger budget puts
	// the per-update learn+infer cost in the tens-of-ms range a
	// corpus-scale graph has, which is the balance the pipeline targets.
	kb := benchServingKB(b, append([]deepdive.Option{
		deepdive.WithInference(450, 3400),
	}, opts...)...)
	defer kb.Close()
	if serialized {
		kb.SerializeUpdates()
	}
	q := kb.Updates()
	const burst = 12   // updates per iteration
	const mentions = 5 // mentions per document

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tickets := make([]*deepdive.Ticket, 0, burst)
		for s := 0; s < burst/2; s++ {
			// Insert a wide document, then delete it again: the delete
			// touches the insert's tuples, so batches never coalesce and
			// the graph stays bounded across iterations. The delete is
			// built from a second wideDocUpdate call, not ins.Inserts —
			// conflictMark appends to the update's maps, and an aliased
			// map would be mutated behind the already-submitted insert.
			ins := wideDocUpdate(n*burst+s, mentions)
			del := deepdive.Update{Deletes: wideDocUpdate(n*burst+s, mentions).Inserts}
			tickets = append(tickets, q.Submit(conflictMark(ins)), q.Submit(conflictMark(del)))
		}
		for _, tk := range tickets {
			if _, err := tk.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*burst)/b.Elapsed().Seconds(), "updates/sec")
}

func BenchmarkPipelineThroughput(b *testing.B) {
	regimes := []struct {
		name string
		opts []deepdive.Option
	}{
		{"inproc", nil},
		{"extractor", []deepdive.Option{
			deepdive.WithUDF("phrase", extractorPhrase(time.Millisecond)),
		}},
	}
	for _, u := range regimes {
		for _, serialized := range []bool{false, true} {
			mode := "pipelined"
			if serialized {
				mode = "serialized"
			}
			b.Run(fmt.Sprintf("udf=%s/mode=%s", u.name, mode), func(b *testing.B) {
				runPipelineThroughput(b, serialized, u.opts...)
			})
		}
	}
}
