package serve

import (
	"net/http"
	"net/url"
	"slices"
	"testing"
)

// FuzzReadQuery checks the one-pass query scan against url.ParseQuery,
// which r.URL.Query() runs: any raw query yields the relation and the
// threshold url.Values.Get reads and the tuple indexing reads.
func FuzzReadQuery(f *testing.F) {
	for _, raw := range []string{
		"", "relation=R&tuple=a&tuple=b", "relation=R;x&relation=S", "tuple=a+b&tuple=%41%e6%97%a5",
		"relation=%zz&relation=T", "rel%61tion=R&tupl%65=x&thr%65shold=1", "relation&tuple", "a=b&relation=%",
		"threshold=0.5&threshold=0.9", "tuple=&tuple=", "&&=&relation==&tuple==x", "r+elation=R&%=1",
		"relation=R&tuple=a%", "relation=R&tuple=a%2", "tuple=%2B%26%3D%3B", "relation%3DR=S", "relation=R&relation=S&tuple=a",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		q := getQuery(raw)
		defer putQuery(q)
		if q.relation != want.Get("relation") || q.threshold != want.Get("threshold") || !slices.Equal(q.tuple, want["tuple"]) {
			t.Fatalf("%q: relation %q threshold %q tuple %q; url.ParseQuery: %q %q %q",
				raw, q.relation, q.threshold, q.tuple, want.Get("relation"), want.Get("threshold"), want["tuple"])
		}
	})
}

// TestReadQueryReplies pins the point read and the facts scan on queries
// url.ParseQuery decodes with care — dropped pairs (';', a bad escape),
// '+' as a space, escaped keys, repeated and empty parameters — and on
// every 400 they answer: each status and body is the one the handlers
// served when they read r.URL.Query() and encoded with encoding/json.
func TestReadQueryReplies(t *testing.T) {
	v := &fakeView{epoch: 3, rels: map[string][]Fact{
		"R": {
			{Tuple: []string{"a b"}, Probability: 0.5, Known: true},
			{Tuple: []string{"a"}, Probability: 0.25, Known: true},
			{Tuple: []string{"<b>"}, Probability: 1, Known: true, Evidence: true},
			{Tuple: []string{"a+b;c"}, Probability: 0.75, Known: true},
		},
	}}
	h := New(newFakeBackend(v), Options{}).Handler()
	for _, c := range []struct {
		path string
		code int
		body string
	}{
		{"/v1/marginal?relation=R&tuple=a+b", http.StatusOK, `{"epoch":3,"known":true,"probability":0.5,"relation":"R","tuple":["a b"]}`},
		{"/v1/marginal?relation=R&tuple=a%20b", http.StatusOK, `{"epoch":3,"known":true,"probability":0.5,"relation":"R","tuple":["a b"]}`},
		{"/v1/marginal?relation=R&tuple=a%2Bb%3Bc", http.StatusOK, `{"epoch":3,"known":true,"probability":0.75,"relation":"R","tuple":["a+b;c"]}`},
		{"/v1/marginal?relation=R;x&relation=R&tuple=a", http.StatusOK, `{"epoch":3,"known":true,"probability":0.25,"relation":"R","tuple":["a"]}`},
		{"/v1/marginal?relation=R&tuple=a;b", http.StatusBadRequest, `{"error":"relation and at least one tuple parameter required"}`},
		{"/v1/marginal?relation=%zz&relation=R&tuple=a", http.StatusOK, `{"epoch":3,"known":true,"probability":0.25,"relation":"R","tuple":["a"]}`},
		{"/v1/marginal?relation=R&tuple=%zz&tuple=a", http.StatusOK, `{"epoch":3,"known":true,"probability":0.25,"relation":"R","tuple":["a"]}`},
		{"/v1/marginal?relation=R&tuple=a%", http.StatusBadRequest, `{"error":"relation and at least one tuple parameter required"}`},
		{"/v1/marginal?relation=R&relation=S&tuple=a", http.StatusOK, `{"epoch":3,"known":true,"probability":0.25,"relation":"R","tuple":["a"]}`},
		{"/v1/marginal?relation=S&relation=R&tuple=a", http.StatusNotFound, `{"epoch":3,"known":false,"relation":"S","tuple":["a"]}`},
		{"/v1/marginal?rel%61tion=R&tupl%65=a", http.StatusOK, `{"epoch":3,"known":true,"probability":0.25,"relation":"R","tuple":["a"]}`},
		{"/v1/marginal?relation=R&tuple=%3Cb%3E", http.StatusOK, `{"epoch":3,"known":true,"probability":1,"relation":"R","tuple":["\u003cb\u003e"]}`},
		{"/v1/marginal?relation=R&tuple=a&tuple=b", http.StatusNotFound, `{"epoch":3,"known":false,"relation":"R","tuple":["a","b"]}`},
		{"/v1/marginal?relation=R&tuple=", http.StatusNotFound, `{"epoch":3,"known":false,"relation":"R","tuple":[""]}`},
		{"/v1/marginal?relation=R&tuple", http.StatusNotFound, `{"epoch":3,"known":false,"relation":"R","tuple":[""]}`},
		{"/v1/marginal?relation=R&tuple=&tuple=", http.StatusNotFound, `{"epoch":3,"known":false,"relation":"R","tuple":["",""]}`},
		{"/v1/marginal?&&relation=R&&tuple=a&&", http.StatusOK, `{"epoch":3,"known":true,"probability":0.25,"relation":"R","tuple":["a"]}`},
		{"/v1/marginal?relation=&relation=R&tuple=a", http.StatusBadRequest, `{"error":"relation and at least one tuple parameter required"}`},
		{"/v1/marginal?relation=R", http.StatusBadRequest, `{"error":"relation and at least one tuple parameter required"}`},
		{"/v1/marginal?tuple=a", http.StatusBadRequest, `{"error":"relation and at least one tuple parameter required"}`},
		{"/v1/marginal", http.StatusBadRequest, `{"error":"relation and at least one tuple parameter required"}`},
		{"/v1/facts?relation=R&threshold=0.3", http.StatusOK, `{"epoch":3,"facts":[{"tuple":["a b"],"probability":0.5,"known":true},{"tuple":["\u003cb\u003e"],"probability":1,"known":true,"evidence":true},{"tuple":["a+b;c"],"probability":0.75,"known":true}],"relation":"R"}`},
		{"/v1/facts?relation=R&threshold=abc", http.StatusBadRequest, `{"error":"bad threshold \"abc\""}`},
		{"/v1/facts?relation=R&threshold=NaN", http.StatusBadRequest, `{"error":"bad threshold \"NaN\""}`},
		{"/v1/facts?relation=R&threshold=1e999", http.StatusBadRequest, `{"error":"bad threshold \"1e999\""}`},
		{"/v1/facts?relation=R&threshold=+0.5", http.StatusBadRequest, `{"error":"bad threshold \" 0.5\""}`},
		{"/v1/facts?relation=R&threshold=inf", http.StatusOK, `{"epoch":3,"facts":[],"relation":"R"}`},
		{"/v1/facts?relation=R&threshold=&threshold=0.9", http.StatusOK, `{"epoch":3,"facts":[{"tuple":["a b"],"probability":0.5,"known":true},{"tuple":["a"],"probability":0.25,"known":true},{"tuple":["\u003cb\u003e"],"probability":1,"known":true,"evidence":true},{"tuple":["a+b;c"],"probability":0.75,"known":true}],"relation":"R"}`},
		{"/v1/facts?relation=R&threshold=%zz&threshold=0.9", http.StatusOK, `{"epoch":3,"facts":[{"tuple":["\u003cb\u003e"],"probability":1,"known":true,"evidence":true}],"relation":"R"}`},
		{"/v1/facts?relation=R&threshold=0.9;", http.StatusOK, `{"epoch":3,"facts":[{"tuple":["a b"],"probability":0.5,"known":true},{"tuple":["a"],"probability":0.25,"known":true},{"tuple":["\u003cb\u003e"],"probability":1,"known":true,"evidence":true},{"tuple":["a+b;c"],"probability":0.75,"known":true}],"relation":"R"}`},
		{"/v1/facts?relation=S", http.StatusOK, `{"epoch":3,"facts":[],"relation":"S"}`},
		{"/v1/facts?threshold=0.5", http.StatusBadRequest, `{"error":"relation parameter required"}`},
		{"/v1/facts?relation=", http.StatusBadRequest, `{"error":"relation parameter required"}`},
		{"/v1/facts", http.StatusBadRequest, `{"error":"relation parameter required"}`},
	} {
		for pass := 0; pass < 2; pass++ { // the second scan of a relation copies its cached table
			code, got := serveBody(t, h, c.path)
			if code != c.code || string(got) != c.body+"\n" {
				t.Errorf("GET %s pass %d: %d %s\nwant %d %s", c.path, pass, code, got, c.code, c.body)
			}
		}
	}
}
