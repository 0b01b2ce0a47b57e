package deepdive_test

// The chaos soak harness: a randomized schedule of I/O faults, fsync
// stalls, stalled subscribers, and queue-overload bursts runs against a
// live durable KB behind its HTTP tier while writers, read probes, and a
// reconnecting subscriber keep driving traffic. The acceptance
// invariants are the degraded-mode contract end to end:
//
//   - zero acknowledged-update loss: every 200-acked document's facts
//     are in the final table (and survive a restart);
//   - zero read unavailability: every health and marginal probe fired
//     during the fault schedule succeeds off the snapshot pointer;
//   - self-healing: the WAL chain is broken repeatedly and the KB ends
//     Healthy without a single manual Checkpoint call;
//   - refusals are typed: writers see only the documented wire codes
//     (429 queue_saturated, 503 durability_suspended / read_only), never
//     silent drops.
//
// A lesion phase (auto-repair disabled) pins that the harness detects
// the regression it exists for: the same fault wedges that KB until a
// manual Checkpoint.
//
// The default window keeps `go test ./...` fast; CHAOS_SECONDS extends
// the soak (`make chaos` runs 10 s).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"deepdive"
	"deepdive/internal/serve"
)

func chaosWindow(t *testing.T) time.Duration {
	t.Helper()
	if s := os.Getenv("CHAOS_SECONDS"); s != "" {
		sec, err := strconv.ParseFloat(s, 64)
		if err != nil || sec <= 0 {
			t.Fatalf("bad CHAOS_SECONDS=%q", s)
		}
		return time.Duration(sec * float64(time.Second))
	}
	return 1500 * time.Millisecond
}

// chaosHist is a tiny string-class counter shared across the traffic
// goroutines.
type chaosHist struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (h *chaosHist) add(class string) {
	h.mu.Lock()
	if h.m == nil {
		h.m = make(map[string]uint64)
	}
	h.m[class]++
	h.mu.Unlock()
}

func (h *chaosHist) get() map[string]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]uint64, len(h.m))
	for k, v := range h.m {
		out[k] = v
	}
	return out
}

// classifyWire buckets one non-200 update response by its typed code.
func classifyWire(status int, body []byte) string {
	var typed struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &typed) == nil && typed.Code != "" {
		return fmt.Sprintf("http_%d_%s", status, typed.Code)
	}
	return fmt.Sprintf("http_%d", status)
}

// TestChaosSoak is the acceptance harness (see the file comment for the
// invariants). Fault classes fired by the randomized scheduler:
//
//  1. wal_append_eio      one-shot EIO on a WAL append (breaks the chain)
//  2. wal_append_enospc   one-shot ENOSPC on a WAL append
//  3. wal_create_sticky   sticky ENOSPC on WAL rotation for a window —
//     every repair attempt fails until the "disk"
//     comes back (exercises backoff + ReadOnly)
//  4. snap_write_eio      one-shot EIO on the next snapshot write (fails
//     a repair checkpoint mid-flight)
//  5. fsync_stall         latency injection on WAL fsync for a window
//  6. queue_burst         a burst of no-wait updates into the bounded
//     queue (exercises 429 admission shedding)
//  7. stalled_subscriber  a raw-TCP subscriber that never reads its
//     socket for a window
func TestChaosSoak(t *testing.T) {
	ctx := context.Background()
	window := chaosWindow(t)
	const seed = 41
	rng := rand.New(rand.NewSource(seed))

	dir := t.TempDir()
	plan := deepdive.NewIOFaultPlan(seed)
	kb := persistSpouseKB(t, deepdive.WithDataDir(dir),
		deepdive.WithIOFaults(plan),
		deepdive.WithMaxPending(4),
		deepdive.WithRepairBackoff(10*time.Millisecond, 80*time.Millisecond),
		deepdive.WithReadOnlyAfter(6))
	bmust(t, kb.Checkpoint(ctx)) // the last manual checkpoint of the soak
	srv := serveKB(t, kb, deepdive.ServeOptions{Options: serve.Options{
		WriteTimeout: 250 * time.Millisecond,
		ResumeWindow: 64,
	}})
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	hist := &chaosHist{}

	// Writer: sustained waited updates; 200 acks are recorded for the
	// zero-loss verification, refusals must carry a documented class.
	var ackMu sync.Mutex
	acked := make(map[int]bool)
	var refused uint64
	nextDoc := 1000
	wg.Add(1)
	go func() {
		defer wg.Done()
		for doc := nextDoc; ; doc++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(base+"/v1/update?wait=1", "application/json",
				strings.NewReader(wireDocUpdate(doc)))
			if err != nil {
				hist.add("conn")
				continue
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				refused++
				hist.add(classifyWire(resp.StatusCode, body))
				time.Sleep(5 * time.Millisecond) // honest client backs off
				continue
			}
			ackMu.Lock()
			acked[doc] = true
			ackMu.Unlock()
		}
	}()

	// Read probes: liveness and a point marginal, continuously. EVERY
	// probe must succeed — reads serve off the snapshot pointer through
	// all degraded states.
	var healthProbes, marginalProbes, probeFailures uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, _ := probeJSON(base + "/v1/health")
			healthProbes++
			if code != 200 {
				probeFailures++
				hist.add(fmt.Sprintf("probe_health_%d", code))
			}
			code, _ = probeJSON(base + "/v1/marginal?relation=HasSpouse&tuple=a&tuple=b")
			marginalProbes++
			if code != 200 {
				probeFailures++
				hist.add(fmt.Sprintf("probe_marginal_%d", code))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Reconnecting subscriber: drops its own connection periodically and
	// reconnects with the last SSE id, exercising Last-Event-ID resume
	// under the fault schedule.
	var deltas, reconnects, resumes uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		subRng := rand.New(rand.NewSource(seed + 1)) // the scheduler's rng is not goroutine-safe
		lastID := ""
		first := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !first {
				reconnects++
				time.Sleep(time.Duration(5+subRng.Intn(10)) * time.Millisecond)
			}
			first = false
			req, _ := http.NewRequest("GET", base+"/v1/subscribe?relation=HasSpouse", nil)
			if lastID != "" {
				req.Header.Set("Last-Event-ID", lastID)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				continue
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				continue
			}
			// Read events for a while, then sever on purpose.
			connDeadline := time.Now().Add(time.Duration(100+subRng.Intn(150)) * time.Millisecond)
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
			event := ""
			timer := time.AfterFunc(time.Until(connDeadline), func() { resp.Body.Close() })
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "id: "):
					lastID = line[len("id: "):]
				case strings.HasPrefix(line, "event: "):
					event = line[len("event: "):]
				case strings.HasPrefix(line, "data: "):
					switch event {
					case "delta":
						deltas++
					case "resumed":
						resumes++
					}
				}
			}
			timer.Stop()
			resp.Body.Close()
		}
	}()

	// The fault scheduler: a seeded random walk over the fault classes.
	schedule := make(map[string]int)
	classes := []string{"wal_append_eio", "wal_append_enospc", "wal_create_sticky",
		"snap_write_eio", "fsync_stall", "queue_burst", "stalled_subscriber"}
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		class := classes[rng.Intn(len(classes))]
		schedule[class]++
		switch class {
		case "wal_append_eio":
			plan.Arm(deepdive.IOWALAppend, deepdive.ErrInjectedIO)
		case "wal_append_enospc":
			plan.Arm(deepdive.IOWALAppend, deepdive.ErrInjectedNoSpace)
		case "wal_create_sticky":
			plan.SetSticky(deepdive.IOWALCreate, deepdive.ErrInjectedNoSpace)
			plan.Arm(deepdive.IOWALAppend, deepdive.ErrInjectedIO) // break the chain so repair runs into the sticky fault
			time.Sleep(time.Duration(40+rng.Intn(80)) * time.Millisecond)
			plan.SetSticky(deepdive.IOWALCreate, nil)
		case "snap_write_eio":
			plan.Arm(deepdive.IOSnapWrite, deepdive.ErrInjectedIO)
		case "fsync_stall":
			plan.SetLatency(deepdive.IOWALSync, 15*time.Millisecond)
			time.Sleep(time.Duration(30+rng.Intn(60)) * time.Millisecond)
			plan.SetLatency(deepdive.IOWALSync, 0)
		case "queue_burst":
			for i := 0; i < 12; i++ {
				resp, err := http.Post(base+"/v1/update", "application/json",
					strings.NewReader(wireDocUpdate(50_000+schedule[class]*100+i)))
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					hist.add(classifyWire(resp.StatusCode, body))
				}
			}
		case "stalled_subscriber":
			conn, err := net.Dial("tcp", srv.Addr())
			if err == nil {
				fmt.Fprintf(conn, "GET /v1/subscribe HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n")
				time.AfterFunc(time.Duration(100+rng.Intn(200))*time.Millisecond, func() { conn.Close() })
			}
		}
		time.Sleep(time.Duration(15+rng.Intn(45)) * time.Millisecond)
	}

	// Fault window over: clear the standing faults. One-shot arms queued
	// but never consumed can still fire on later appends — that's part of
	// the chaos; recovery below must absorb them too.
	plan.SetSticky(deepdive.IOWALCreate, nil)
	plan.SetLatency(deepdive.IOWALSync, 0)

	// One more acked write proves the write path fully recovers — an
	// honest client retrying through any leftover one-shot faults, healed
	// each time by the repair loop alone (NO manual Checkpoint anywhere
	// past setup).
	healDoc := 99_999
	healDeadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(healDeadline) {
			t.Fatalf("write path never recovered: %+v (%v)", kb.Health(), hist.get())
		}
		resp, err := http.Post(base+"/v1/update?wait=1", "application/json",
			strings.NewReader(wireDocUpdate(healDoc)))
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		refusedPostHeal := classifyWire(resp.StatusCode, body)
		hist.add(refusedPostHeal)
		time.Sleep(10 * time.Millisecond)
	}
	ackMu.Lock()
	acked[healDoc] = true
	ackMu.Unlock()
	close(stop)
	wg.Wait()

	// Let the queue drain the burst leftovers, then the health state must
	// settle at Healthy via auto-repair.
	drainDeadline := time.Now().Add(30 * time.Second)
	for kb.Updates().Stats().Pending > 0 {
		if time.Now().After(drainDeadline) {
			t.Fatalf("queue never drained: %+v", kb.Updates().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitHealth(t, kb, deepdive.Healthy, 30*time.Second)

	// Zero-loss verification against the live table...
	ackMu.Lock()
	ackedDocs := make([]int, 0, len(acked))
	for doc := range acked {
		ackedDocs = append(ackedDocs, doc)
	}
	ackMu.Unlock()
	lost := missingAcked(t, base, ackedDocs)
	if len(lost) > 0 {
		t.Fatalf("%d acked update(s) missing from the final table (first: doc %d)", len(lost), lost[0])
	}

	// ...and the probe + repair invariants.
	if probeFailures != 0 {
		t.Fatalf("%d read probes failed during the fault schedule (%v)", probeFailures, hist.get())
	}
	st := kb.Health()
	if st.State != deepdive.Healthy || st.AutoRepairs < 1 {
		t.Fatalf("soak must end Healthy via auto-repair: %+v", st)
	}
	// Every writer refusal must carry a documented class — no silent or
	// untyped failures.
	allowed := map[string]bool{
		"http_429_queue_saturated": true, "http_503_durability_suspended": true,
		"http_503_read_only": true, "http_503_update_timeout": true,
	}
	for class, n := range hist.get() {
		if strings.HasPrefix(class, "probe_") || class == "conn" {
			continue
		}
		if !allowed[class] {
			t.Errorf("undocumented refusal class %q (%d times)", class, n)
		}
	}
	if deltas == 0 {
		t.Error("subscriber observed no deltas across the soak")
	}
	if plan.Injected(deepdive.IOWALAppend) == 0 {
		t.Error("no WAL append fault actually fired — the soak did not break the chain")
	}

	// Crash-consistency coda: what the KB serves after a clean close +
	// restart must still contain every acked document.
	want := spouseBits(kb)
	bmust(t, kb.Close())
	kb2 := reopenSpouseKB(t, dir)
	assertSameBits(t, want, spouseBits(kb2), "chaos restart")
	bmust(t, kb2.Close())

	t.Logf("chaos: %d acked, %d refused, %d deltas (%d reconnects, %d resumes), %d+%d probes, faults %v",
		len(ackedDocs), refused, deltas, reconnects, resumes, healthProbes, marginalProbes, schedule)

	// The lesion: the identical WAL fault with auto-repair disabled stays
	// wedged until a manual Checkpoint — proving the soak's recovery was
	// the repair loop's doing, not an accident of the write path.
	runChaosLesion(t)
}

// runChaosLesion runs the auto-repair-off control: the KB must stay
// wedged until a manual Checkpoint heals it.
func runChaosLesion(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	plan := deepdive.NewIOFaultPlan(42)
	kb := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()),
		deepdive.WithIOFaults(plan),
		deepdive.WithLesions(deepdive.Lesions{NoAutoRepair: true}),
		deepdive.WithRepairBackoff(10*time.Millisecond, 40*time.Millisecond))
	defer kb.Close()
	bmust(t, kb.Checkpoint(ctx))

	plan.Arm(deepdive.IOWALAppend, deepdive.ErrInjectedIO)
	if _, err := kb.Apply(ctx, docUpdate(0)); err == nil {
		t.Fatal("lesion: faulted update acknowledged")
	}
	const wedgeWindow = 150 * time.Millisecond
	time.Sleep(wedgeWindow) // many backoff periods' worth of nothing
	if st := kb.Health(); st.State != deepdive.DurabilityDegraded || st.RepairAttempts != 0 {
		t.Fatalf("lesion KB did not stay wedged: %+v", st)
	}
	bmust(t, kb.Checkpoint(ctx))
	if st := kb.Health(); st.State != deepdive.Healthy {
		t.Fatalf("lesion KB did not heal on manual Checkpoint: %+v", st)
	}
}

// probeJSON fires one GET and returns (status, decoded body); status 0
// means a transport failure.
func probeJSON(url string) (int, map[string]any) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

// missingAcked returns the acked documents whose HasSpouse candidate is
// absent from the served fact table.
func missingAcked(t *testing.T, base string, ackedDocs []int) []int {
	t.Helper()
	code, body := probeJSON(base + "/v1/facts?relation=HasSpouse")
	if code != 200 {
		t.Fatalf("final facts read: %d", code)
	}
	present := make(map[string]bool)
	for _, f := range body["facts"].([]any) {
		tuple := f.(map[string]any)["tuple"].([]any)
		parts := make([]string, len(tuple))
		for i, p := range tuple {
			parts[i] = p.(string)
		}
		present[strings.Join(parts, "\x00")] = true
	}
	var lost []int
	for _, doc := range ackedDocs {
		if !present[fmt.Sprintf("p%da\x00p%db", doc, doc)] {
			lost = append(lost, doc)
		}
	}
	return lost
}
