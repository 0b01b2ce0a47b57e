package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"deepdive"
)

// The handler loop: the read path of the served KB without the network.
// The server child calls KBServer.Handler().ServeHTTP into an in-memory
// writer with wire_reads's mix — Zipf-skewed /v1/marginal lookups over
// the KB's own facts, /v1/facts?relation=&threshold= scans — on one
// goroutine, in alternating slices of each kind, and reads its own CPU
// clock at the slice boundaries. What a request costs here (mux, handler,
// snapshot lookup, JSON encoding) is the part of a wire read the
// repository's code decides; the rest of a wire read in this sandbox is
// the hypervisor waking halted vCPUs.
const (
	marginalSlice = 2000 // requests per slice
	factsSlice    = 100
)

// handlerReport is what the loop measured.
type handlerReport struct {
	MarginalCPUms []float64 `json:"marginal_cpu_ms"` // CPU per request, one value per slice
	FactsCPUms    []float64 `json:"facts_cpu_ms"`
	RefCPUms      []float64 `json:"ref_cpu_ms"`  // the reference unit (ref.go), run once a slice
	MarginalUS    float64   `json:"marginal_us"` // wall clock per request, median
	FactsUS       float64   `json:"facts_us"`
	BytesP50      float64   `json:"bytes_p50"` // response size of the mix's median request, a point lookup
	SnapMarginal  float64   `json:"snapshot_marginal_ns"`
	SnapFactsUS   float64   `json:"snapshot_facts_us"`
	Calls         int       `json:"calls"`
	Failed        int       `json:"failed"`
	Error         string    `json:"error,omitempty"`
}

// snapshotKeys lists the KB's facts with a marginal as point-read targets.
func snapshotKeys(snap *deepdive.Snapshot) ([]readTarget, []string) {
	var keys []readTarget
	rels := snap.Relations()
	for _, rel := range rels {
		for _, f := range snap.Facts(rel) {
			if f.Known {
				keys = append(keys, readTarget{rel: rel, tuple: f.Tuple})
			}
		}
	}
	return keys, rels
}

func handlerLoop(ctx context.Context, kb *deepdive.KB, h http.Handler, ref *refUnit, d time.Duration, seed int64) (handlerReport, error) {
	var rep handlerReport
	keys, rels := snapshotKeys(kb.Snapshot())
	if len(keys) < 2 {
		return rep, fmt.Errorf("served KB has %d facts with a marginal", len(keys))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	// Requests are built once: parsing a URL is the load generator's work.
	build := func(t readTarget) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, t.path(), nil)
	}
	marginal := make([]*http.Request, len(keys))
	for i, k := range keys {
		req, err := build(k)
		if err != nil {
			return rep, err
		}
		marginal[i] = req
	}
	facts := make([]*http.Request, len(rels))
	for i, rel := range rels {
		req, err := build(readTarget{facts: true, rel: rel})
		if err != nil {
			return rep, err
		}
		facts[i] = req
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	var marginalUS, factsUS, marginalBytes, factsBytes samples
	serve := func(req *http.Request, us, sizes *samples) {
		w := &memWriter{h: http.Header{}}
		t := time.Now()
		h.ServeHTTP(w, req)
		us.add(float64(time.Since(t)) / 1e3)
		rep.Calls++
		if w.status != 0 && w.status != http.StatusOK {
			rep.Failed++
		}
		sizes.add(float64(w.n))
	}
	deadline := time.Now().Add(d)
	for slice := 0; slice == 0 || time.Now().Before(deadline); slice++ {
		// Each slice has its own hot set: which keys a seed makes hot would
		// otherwise decide what the whole run measures.
		hot := rng.Intn(len(marginal))
		rep.RefCPUms = append(rep.RefCPUms, ref.run())
		c := cpuClock(0)
		for i := 0; i < marginalSlice; i++ {
			serve(marginal[(int(zipf.Uint64())+hot)%len(marginal)], &marginalUS, &marginalBytes)
		}
		rep.MarginalCPUms = append(rep.MarginalCPUms, ms(cpuClock(0)-c)/marginalSlice)
		c = cpuClock(0)
		for i := 0; i < factsSlice; i++ {
			serve(facts[rng.Intn(len(facts))], &factsUS, &factsBytes)
		}
		rep.FactsCPUms = append(rep.FactsCPUms, ms(cpuClock(0)-c)/factsSlice)
	}
	rep.MarginalUS, rep.FactsUS = marginalUS.median(), factsUS.median()
	rep.BytesP50 = marginalBytes.median()

	// The kb layer underneath: the snapshot lookups the handlers make.
	snap := kb.Snapshot()
	var lookups, scans samples
	for i := 0; i < 2000; i++ {
		k := keys[zipf.Uint64()]
		t := time.Now()
		_, ok := snap.Marginal(k.rel, deepdive.Tuple(k.tuple))
		lookups.add(float64(time.Since(t)))
		if !ok {
			rep.Failed++
		}
	}
	for i := 0; i < 100; i++ {
		t := time.Now()
		_ = snap.Facts(rels[i%len(rels)])
		scans.add(float64(time.Since(t)) / 1e3)
	}
	rep.SnapMarginal, rep.SnapFactsUS = lookups.median(), scans.median()
	return rep, nil
}
