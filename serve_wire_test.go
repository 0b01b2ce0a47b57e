package deepdive_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"deepdive"
)

// wireBody is one pinned reply: its status and its body, byte for byte.
type wireBody struct {
	code int
	body string
}

// checkWireBodies compares got against the pinned table. A missing entry
// fails the test and prints the reply in table form.
func checkWireBodies(t *testing.T, got map[string]wireBody, want map[string]wireBody) {
	t.Helper()
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("unpinned %q: {%d, %q},", k, g.code, g.body)
			continue
		}
		if g != w {
			t.Errorf("%s: %d %q\nwant %d %q", k, g.code, g.body, w.code, w.body)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: not requested", k)
		}
	}
}

// rawReply is one request's status and body, less the newline the JSON
// encoder ends it with. A failed request is status -1, its error the body.
func rawReply(resp *http.Response, err error) wireBody {
	if err != nil {
		return wireBody{-1, err.Error()}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return wireBody{-1, err.Error()}
	}
	return wireBody{resp.StatusCode, strings.TrimSuffix(string(b), "\n")}
}

// statsHealth is the "health" member of a /v1/stats body, as sent.
var statsHealth = regexp.MustCompile(`"health":(\{[^}]*\})`)

// updateTimings matches the stage timers of an update reply, the one part
// of the wire bodies below that differs from run to run.
var updateTimings = regexp.MustCompile(`"(ground|learn|infer)_ms":[^,}]*`)

// TestServeHTTPWireBodies pins the wire bodies built from the KB's fact,
// update and health types, each status and body as the tier served them
// before those types were shared with internal/serve, on two passes:
// /v1/health, /v1/health?ready=1 and /v1/stats's health block on a
// healthy, a durability-degraded and a read-only durable KB; the SSE
// snapshot frame of the spouse KB; and POST /v1/update's replies to valid
// and malformed bodies. An update reply's stage timers are masked; a 400
// that quotes the JSON decoder may name db.Tuple where it named []string.
func TestServeHTTPWireBodies(t *testing.T) {
	t.Run("health", func(t *testing.T) {
		ctx := context.Background()
		plan := deepdive.NewIOFaultPlan(2)
		// Repair attempts wait 200–400 ms, then 400–800 ms, then 800–1600
		// ms: each state below holds still for longer than its reads take.
		kb := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()),
			deepdive.WithIOFaults(plan),
			deepdive.WithRepairBackoff(400*time.Millisecond, 10*time.Second),
			deepdive.WithReadOnlyAfter(2))
		defer kb.Close()
		bmust(t, kb.Checkpoint(ctx))
		base := "http://" + serveKB(t, kb, deepdive.ServeOptions{}).Addr()
		got := map[string]wireBody{}
		read := func(state string) {
			t.Helper()
			before := kb.Health()
			for pass := 0; pass < 2; pass++ {
				for _, path := range []string{"/v1/health", "/v1/health?ready=1", "/v1/stats"} {
					r := rawReply(http.Get(base + path))
					if path == "/v1/stats" {
						m := statsHealth.FindStringSubmatch(r.body)
						if m == nil {
							t.Fatalf("%s: no health block in %s", path, r.body)
						}
						r.body = m[1]
					}
					k := state + " " + path
					if prev, ok := got[k]; ok && prev != r {
						t.Fatalf("%s: pass %d differs: %v, then %v", k, pass, prev, r)
					}
					got[k] = r
				}
			}
			if after := kb.Health(); after != before {
				t.Fatalf("%s: health moved during the reads: %+v, then %+v", state, before, after)
			}
		}
		read("healthy")
		plan.SetSticky(deepdive.IOWALCreate, deepdive.ErrInjectedNoSpace)
		plan.Arm(deepdive.IOWALAppend, deepdive.ErrInjectedNoSpace)
		if _, err := kb.Apply(ctx, docUpdate(0)); err == nil {
			t.Fatal("faulted update acknowledged")
		}
		read("durability-degraded")
		waitHealth(t, kb, deepdive.ReadOnly, 10*time.Second)
		read("read-only")
		plan.SetSticky(deepdive.IOWALCreate, nil)
		checkWireBodies(t, got, map[string]wireBody{
			`durability-degraded /v1/health`:         {200, `{"draining":false,"epoch":5,"health":{"state":"durability-degraded","durable":true,"wal_broken":true,"auto_repair":true,"repairing":true},"queue":{"pending":0,"batches":0,"applied":0},"state":"durability-degraded","status":"ok"}`},
			`durability-degraded /v1/health?ready=1`: {200, `{"draining":false,"epoch":5,"health":{"state":"durability-degraded","durable":true,"wal_broken":true,"auto_repair":true,"repairing":true},"queue":{"pending":0,"batches":0,"applied":0},"state":"durability-degraded","status":"ok"}`},
			`durability-degraded /v1/stats`:          {200, `{"state":"durability-degraded","durable":true,"wal_broken":true,"auto_repair":true,"repairing":true}`},
			`healthy /v1/health`:                     {200, `{"draining":false,"epoch":5,"health":{"state":"healthy","durable":true,"auto_repair":true},"queue":{"pending":0,"batches":0,"applied":0},"state":"healthy","status":"ok"}`},
			`healthy /v1/health?ready=1`:             {200, `{"draining":false,"epoch":5,"health":{"state":"healthy","durable":true,"auto_repair":true},"queue":{"pending":0,"batches":0,"applied":0},"state":"healthy","status":"ok"}`},
			`healthy /v1/stats`:                      {200, `{"state":"healthy","durable":true,"auto_repair":true}`},
			`read-only /v1/health`:                   {200, `{"draining":false,"epoch":5,"health":{"state":"read-only","durable":true,"wal_broken":true,"auto_repair":true,"repairing":true,"repair_attempts":2,"repair_failures":2},"queue":{"pending":0,"batches":0,"applied":0},"state":"read-only","status":"ok"}`},
			`read-only /v1/health?ready=1`:           {200, `{"draining":false,"epoch":5,"health":{"state":"read-only","durable":true,"wal_broken":true,"auto_repair":true,"repairing":true,"repair_attempts":2,"repair_failures":2},"queue":{"pending":0,"batches":0,"applied":0},"state":"read-only","status":"ok"}`},
			`read-only /v1/stats`:                    {200, `{"state":"read-only","durable":true,"wal_broken":true,"auto_repair":true,"repairing":true,"repair_attempts":2,"repair_failures":2}`},
		})
	})

	t.Run("snapshot", func(t *testing.T) {
		kb := spouseKB(t)
		defer kb.Close()
		base := "http://" + serveKB(t, kb, deepdive.ServeOptions{}).Addr()
		got := map[string]wireBody{}
		for pass := 0; pass < 2; pass++ {
			for _, q := range []string{"", "?relation=HasSpouse&tuple=a&tuple=b", "?relation=NoSuchRelation"} {
				resp, err := http.Get(base + "/v1/subscribe" + q)
				if err != nil {
					t.Fatal(err)
				}
				rd := bufio.NewReader(resp.Body)
				var frame strings.Builder
				for !strings.HasSuffix(frame.String(), "\n\n") {
					line, err := rd.ReadString('\n')
					if err != nil {
						t.Fatalf("subscribe%s: %v after %q", q, err, frame.String())
					}
					frame.WriteString(line)
				}
				resp.Body.Close()
				k := "subscribe" + q
				r := wireBody{resp.StatusCode, frame.String()}
				if prev, ok := got[k]; ok && prev != r {
					t.Fatalf("%s: pass %d differs: %v, then %v", k, pass, prev, r)
				}
				got[k] = r
			}
		}
		checkWireBodies(t, got, map[string]wireBody{
			`subscribe`: {200, "id: 4\nevent: snapshot\ndata: " + `{"epoch":4,"facts":{"HasSpouse":[{"tuple":["a","b"],"probability":1,"known":true,"evidence":true},{"tuple":["b","a"],"probability":0.9834244398394801,"known":true},{"tuple":["c","d"],"probability":0.9834244398394801,"known":true},{"tuple":["d","c"],"probability":0.9834244398394801,"known":true},{"tuple":["e","f"],"probability":0.5,"known":true},{"tuple":["f","e"],"probability":0.5,"known":true}]}}` + "\n\n"},
			`subscribe?relation=HasSpouse&tuple=a&tuple=b`: {200, "id: 4\nevent: snapshot\ndata: " + `{"epoch":4,"facts":{"HasSpouse":[{"tuple":["a","b"],"probability":1,"known":true,"evidence":true}]}}` + "\n\n"},
			`subscribe?relation=NoSuchRelation`:            {200, "id: 4\nevent: snapshot\ndata: " + `{"epoch":4,"facts":{}}` + "\n\n"},
		})
	})

	t.Run("update", func(t *testing.T) {
		kb := spouseKB(t)
		defer kb.Close()
		base := "http://" + serveKB(t, kb, deepdive.ServeOptions{}).Addr()
		got := map[string]wireBody{}
		post := func(body string, wait bool) {
			t.Helper()
			url := base + "/v1/update"
			if wait {
				url += "?wait=1"
			}
			r := rawReply(http.Post(url, "application/json", strings.NewReader(body)))
			r.body = updateTimings.ReplaceAllString(r.body, `"${1}_ms":0`)
			r.body = strings.ReplaceAll(r.body, "db.Tuple", "[]string")
			k := fmt.Sprintf("wait=%v %s", wait, body)
			if prev, ok := got[k]; ok && prev != r {
				t.Fatalf("%s: second pass differs: %v, then %v", k, prev, r)
			}
			got[k] = r
		}
		// Refusals change nothing, so both passes get the same reply.
		for pass := 0; pass < 2; pass++ {
			for _, body := range []string{
				`{`,
				`[1, 2]`,
				`{"bogus_field": 1}`,
				`{}`,
				`{"inserts": {}}`,
				`{"inserts": {"Sentence": null}}`,
				`{"inserts": {"Sentence": [[]]}}`,
				`{"deletes": {"Sentence": [null]}}`,
				`{"inserts": {"Sentence": ["s9"]}}`,
				`{"inserts": {"Sentence": "s9"}}`,
				`{"inserts": {"Sentence": [[1, 2]]}}`,
				`{"inserts": {"Sentence": [["one-column"]]}}`,
				`{"inserts": {"Sentence": [["s9", "split\u001fhere"]]}}`,
				`{"deletes": {"Married": [["Nobody", "Noone"]]}}`,
				`{"inserts": {"Nope": [["x"]]}}`,
				`{"rule_source": "Broken: HasSpouse(m1) :- ."}`,
			} {
				post(body, true)
			}
		}
		// Updates that apply, once each and in order: each publishes.
		for _, body := range []string{
			`{"inserts": {"Sentence": [["sx1", "Pat and his wife Sam"]], "PersonMention": [["p1a", "sx1", "Patsx1"], ["p1b", "sx1", "Samsx1"]]}}`,
			`{"deletes": {"Sentence": [["sx1", "Pat and his wife Sam"]], "PersonMention": [["p1a", "sx1", "Patsx1"], ["p1b", "sx1", "Samsx1"]]}}`,
			`{"inserts": {"Sentence": [["sz", "Zoë and her wife Ĳssel"]], "PersonMention": [["z1", "sz", "Zoë"], ["z2", "sz", "Ĳssel"]]}, "deletes": {"Sentence": [["sz", "Zoë and her wife Ĳssel"]]}}`,
			`{"inserts": {"Sentence": [["s9", null]]}}`,
		} {
			post(body, true)
		}
		post(`{"inserts": {"Sentence": [["sx2", "Pat and his wife Sam"]]}}`, false)
		checkWireBodies(t, got, map[string]wireBody{
			`wait=false {"inserts": {"Sentence": [["sx2", "Pat and his wife Sam"]]}}`: {202, `{"status":"queued"}`},
			`wait=true [1, 2]`:             {400, `{"error":"bad update body: json: cannot unmarshal array into Go value of type serve.Update"}`},
			`wait=true {`:                  {400, `{"error":"bad update body: unexpected EOF"}`},
			`wait=true {"bogus_field": 1}`: {400, `{"error":"bad update body: json: unknown field \"bogus_field\""}`},
			`wait=true {"deletes": {"Married": [["Nobody", "Noone"]]}}`:                                                                                     {400, `{"code":"invalid_tuple","error":"ground: bad tuple: delete of [\"Nobody\" \"Noone\"], which Married does not hold"}`},
			`wait=true {"deletes": {"Sentence": [["sx1", "Pat and his wife Sam"]], "PersonMention": [["p1a", "sx1", "Patsx1"], ["p1b", "sx1", "Samsx1"]]}}`: {200, `{"epoch":6,"coalesced":1,"strategy":"exact","acceptance":1,"probe":-1,"new_vars":0,"new_factors":0,"scope_vars":0,"learned_weights":0,"dirty_vars":2,"ground_ms":0,"learn_ms":0,"infer_ms":0}`},
			`wait=true {"deletes": {"Sentence": [null]}}`:                                                                                                   {400, `{"error":"empty tuple in deletes[\"Sentence\"]"}`},
			`wait=true {"inserts": {"Nope": [["x"]]}}`:                                                                                                      {409, `{"error":"update failed: ground: unknown relation Nope"}`},
			`wait=true {"inserts": {"Sentence": [[1, 2]]}}`:                                                                                                 {400, `{"error":"bad update body: json: cannot unmarshal number into Go struct field Update.inserts of type string"}`},
			`wait=true {"inserts": {"Sentence": [["one-column"]]}}`:                                                                                         {400, `{"code":"invalid_tuple","error":"ground: bad tuple: Sentence has 2 columns, tuple [\"one-column\"] has 1"}`},
			`wait=true {"inserts": {"Sentence": [["s9", "split\u001fhere"]]}}`:                                                                              {400, `{"code":"invalid_tuple","error":"ground: bad tuple: Sentence: value \"split\\x1fhere\" contains the reserved byte 0x1f"}`},
			`wait=true {"inserts": {"Sentence": [["s9", null]]}}`:                                                                                           {200, `{"epoch":8,"coalesced":1,"strategy":"exact","acceptance":1,"probe":-1,"new_vars":0,"new_factors":0,"scope_vars":0,"learned_weights":0,"dirty_vars":0,"ground_ms":0,"learn_ms":0,"infer_ms":0}`},
			`wait=true {"inserts": {"Sentence": [["sx1", "Pat and his wife Sam"]], "PersonMention": [["p1a", "sx1", "Patsx1"], ["p1b", "sx1", "Samsx1"]]}}`: {200, `{"epoch":5,"coalesced":1,"strategy":"exact","acceptance":1,"probe":-1,"new_vars":2,"new_factors":2,"scope_vars":0,"learned_weights":0,"dirty_vars":2,"ground_ms":0,"learn_ms":0,"infer_ms":0}`},
			`wait=true {"inserts": {"Sentence": [["sz", "Zoë and her wife Ĳssel"]], "PersonMention": [["z1", "sz", "Zoë"], ["z2", "sz", "Ĳssel"]]}, "deletes": {"Sentence": [["sz", "Zoë and her wife Ĳssel"]]}}`: {200, `{"epoch":7,"coalesced":1,"strategy":"exact","acceptance":1,"probe":-1,"new_vars":2,"new_factors":0,"scope_vars":0,"learned_weights":0,"dirty_vars":2,"ground_ms":0,"learn_ms":0,"infer_ms":0}`},
			`wait=true {"inserts": {"Sentence": [[]]}}`:               {400, `{"error":"empty tuple in inserts[\"Sentence\"]"}`},
			`wait=true {"inserts": {"Sentence": ["s9"]}}`:             {400, `{"error":"bad update body: json: cannot unmarshal string into Go struct field Update.inserts of type []string"}`},
			`wait=true {"inserts": {"Sentence": "s9"}}`:               {400, `{"error":"bad update body: json: cannot unmarshal string into Go struct field Update.inserts of type [][]string"}`},
			`wait=true {"inserts": {"Sentence": null}}`:               {400, `{"error":"empty update: provide rule_source, inserts, or deletes"}`},
			`wait=true {"inserts": {}}`:                               {400, `{"error":"empty update: provide rule_source, inserts, or deletes"}`},
			`wait=true {"rule_source": "Broken: HasSpouse(m1) :- ."}`: {409, `{"error":"update failed: datalog: 1:26: expected term, found \".\""}`},
			`wait=true {}`: {400, `{"error":"empty update: provide rule_source, inserts, or deletes"}`},
		})
	})
}
