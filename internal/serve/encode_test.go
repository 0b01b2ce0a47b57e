package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// FuzzReplyBytes checks the appended replies against encoding/json: a
// string, a finite float, and a /v1/marginal body, a fact and a delta
// event built from them encode to the same bytes.
func FuzzReplyBytes(f *testing.F) {
	for _, s := range []string{"", "a", `"<b>&</b>\`, "tab\tnl\nbs\bff\fcr\r\x00\x1f\x7f", "Zoë 日本語", "\xff\xfe", "a\xc3", "\u2028\u2029", "\U0001F600", "\xed\xa0\x80"} {
		for _, p := range []float64{0, math.Copysign(0, -1), 0.5, -0.25, 1, 1e-6, 9.99999e-7, 1e-7, 1e20, 1e21, 123456789.123, 5e-324, math.MaxFloat64} {
			f.Add(s, p, uint64(len(s)), uint8(len(s)))
		}
	}
	f.Fuzz(func(t *testing.T, s string, p float64, epoch uint64, flags uint8) {
		same := func(what string, got []byte, want any) {
			t.Helper()
			w, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("%s of %q, %v:\n got %s\nwant %s", what, s, p, got, w)
			}
		}
		same("string", appendString(nil, s), s)
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return // no marginal is; encoding/json refuses them
		}
		same("float", appendFloat(nil, p), p)
		tuple := []string{s, s[len(s)/2:]}
		if flags&8 != 0 {
			tuple = nil
		}
		known := flags&1 != 0
		if got, want := appendMarginal(nil, epoch, known, p, s, tuple), encoderMarginal(t, epoch, s, tuple, p, known); !bytes.Equal(got, want) {
			t.Fatalf("marginal body of %q, %v:\n got %s\nwant %s", s, p, got, want)
		}
		fact := Fact{Tuple: tuple, Probability: p, Known: known, Evidence: flags&2 != 0}
		same("fact", appendFact(nil, &fact), fact)
		ev := deltaEvent{Epoch: epoch, Skipped: uint64(flags >> 4), Changes: []Change{
			{Relation: s, Tuple: tuple, Probability: p, Known: known, Evidence: flags&2 != 0, Delta: p - 0.5, Removed: flags&4 != 0},
			{Relation: "R", Tuple: []string{s}, Delta: -p},
		}}
		same("delta event", appendDelta(nil, &ev), ev)
	})
}

// TestDeltaBytesMatchEncoder pins the appended delta events to
// json.Marshal's bytes: on the events of generated publication streams
// (appearances, drifts under and over the floors, known and evidence
// flips, removals, skipped epochs), on events json.Marshal treats
// specially, and on the wire, where each delta frame is the one the stream
// wrote with fmt.Fprintf and json.Marshal.
func TestDeltaBytesMatchEncoder(t *testing.T) {
	same := func(ev *deltaEvent) {
		t.Helper()
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendDelta(nil, ev); !bytes.Equal(got, want) {
			t.Fatalf("epoch %d:\n got %s\nwant %s", ev.Epoch, got, want)
		}
	}
	events := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		views := genStream(rng, 80)
		sub := subscribeAt(views[0], subFilter{minDelta: 0.01})
		for i, v := range views[1:] {
			if i%5 == 4 {
				continue // the next event spans two publications
			}
			ev := diff(v, &sub.filter, sub.sentCS, sub.diffed)
			ev.Skipped = uint64(i % 3)
			sub.diffed = v.epoch
			same(&ev)
			events++
		}
	}
	same(&deltaEvent{Epoch: 7})
	same(&deltaEvent{Epoch: 8, Changes: []Change{}})
	same(&deltaEvent{Epoch: 9, Skipped: 2, Changes: []Change{
		{Relation: "R&<D>", Tuple: []string{"<b>", "a&b", "Zoë", "\u2028", "\xff"}, Probability: 1e-7, Known: true, Evidence: true, Delta: -0.25},
		{Relation: "R", Tuple: nil, Delta: math.Copysign(0, -1), Removed: true},
		{Relation: "R", Tuple: []string{}, Probability: 1e21, Known: true, Delta: 1e-300},
	}})

	// On the wire: each delta frame of a live stream is the id line, the
	// event line and json.Marshal's bytes of the event it carries.
	b := newFakeBackend(baseView())
	ts := testServer(t, b, Options{Heartbeat: time.Hour})
	c := dialSSE(t, ts.URL+"/v1/subscribe")
	if name, _ := c.next(t); name != "snapshot" {
		t.Fatalf("first event %q, want snapshot", name)
	}
	v := baseView()
	for e := uint64(2); e <= 6; e++ {
		next := &fakeView{epoch: e, rels: map[string][]Fact{}}
		for rel, facts := range v.rels {
			for i, f := range facts {
				if int(e)%len(facts) == i {
					continue // one fact leaves or comes back each epoch
				}
				f.Probability = math.Mod(f.Probability+0.37*float64(e), 1)
				next.rels[rel] = append(next.rels[rel], f)
			}
		}
		next.rels["HasSpouse"] = append(next.rels["HasSpouse"], Fact{Tuple: []string{"<" + fmt.Sprint(e) + ">", "Zoë&"}, Probability: 1e-9 * float64(e), Known: true})
		b.publish(next)
		frame := readFrame(t, c.rd)
		_, data, _ := strings.Cut(frame, "\ndata: ")
		data = strings.TrimSuffix(data, "\n\n")
		var ev deltaEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("frame %q: %v", frame, err)
		}
		want, _ := json.Marshal(ev)
		if wantFrame := fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Epoch, "delta", want); frame != wantFrame {
			t.Fatalf("frame\n%q\nwant\n%q", frame, wantFrame)
		}
		if len(ev.Changes) == 0 {
			t.Fatalf("epoch %d: a delta without changes", e)
		}
	}
	t.Logf("%d generated events", events)
}

// readFrame reads one SSE frame, through its blank line, as written.
func readFrame(t *testing.T, rd *bufio.Reader) string {
	t.Helper()
	done := make(chan string, 1)
	go func() {
		var frame strings.Builder
		for {
			line, err := rd.ReadString('\n')
			frame.WriteString(line)
			if err != nil || line == "\n" {
				done <- frame.String()
				return
			}
		}
	}()
	select {
	case frame := <-done:
		return frame
	case <-time.After(5 * time.Second):
		t.Fatal("no subscription frame within 5s")
		return ""
	}
}
