package serve

import (
	"net/http/httptest"
	"testing"
)

// TestRouteReplies pins what the router answers around the two read
// routes Server.ServeHTTP takes in front of the mux: unknown paths, wrong
// methods (405 and Allow), HEAD, a trailing slash, an unclean path (301,
// query kept), escaped spellings of a route and the server-wide OPTIONS *.
// Each status, body and header is the one http.ServeMux gave when it
// routed every request.
func TestRouteReplies(t *testing.T) {
	v := &fakeView{epoch: 3, rels: map[string][]Fact{"R": {{Tuple: []string{"a"}, Probability: 0.25, Known: true}}}}
	h := New(newFakeBackend(v), Options{}).Handler()
	const (
		text      = "text/plain; charset=utf-8"
		notFound  = "404 page not found\n"
		notMethod = "Method Not Allowed\n"
		marginal  = `{"epoch":3,"known":true,"probability":0.25,"relation":"R","tuple":["a"]}` + "\n"
	)
	for _, c := range []struct {
		method, target string
		code           int
		body           string
		contentType    string
		allow          string
		location       string
	}{
		{"GET", "/v1/nothing", 404, notFound, text, "", ""},
		{"POST", "/v1/marginal?relation=R&tuple=a", 405, notMethod, text, "GET, HEAD", ""},
		{"GET", "/v1/update", 405, notMethod, text, "POST", ""},
		{"DELETE", "/v1/subscribe", 405, notMethod, text, "GET, HEAD", ""},
		{"PUT", "/v1/facts?relation=R", 405, notMethod, text, "GET, HEAD", ""},
		{"HEAD", "/v1/marginal?relation=R&tuple=a", 200, marginal, "application/json", "", ""},
		{"HEAD", "/v1/facts?relation=R", 200, `{"epoch":3,"facts":[{"tuple":["a"],"probability":0.25,"known":true}],"relation":"R"}` + "\n", "application/json", "", ""},
		{"GET", "/v1/marginal/", 404, notFound, text, "", ""},
		{"GET", "/v1//marginal?relation=R&tuple=a", 301, `<a href="/v1/marginal?relation=R&amp;tuple=a">Moved Permanently</a>.` + "\n\n", "text/html; charset=utf-8", "", "/v1/marginal?relation=R&tuple=a"},
		{"GET", "/v1/./facts?relation=R", 301, `<a href="/v1/facts?relation=R">Moved Permanently</a>.` + "\n\n", "text/html; charset=utf-8", "", "/v1/facts?relation=R"},
		{"GET", "/v1/%6Darginal?relation=R&tuple=a", 200, marginal, "application/json", "", ""},
		{"GET", "/v1%2Fmarginal?relation=R&tuple=a", 404, notFound, text, "", ""},
		{"OPTIONS", "*", 400, "", "", "", ""},
	} {
		for pass := 0; pass < 2; pass++ { // the second point read is a cached reply
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, nil))
			hd := rec.Header()
			if rec.Code != c.code || rec.Body.String() != c.body || hd.Get("Content-Type") != c.contentType ||
				hd.Get("Allow") != c.allow || hd.Get("Location") != c.location {
				t.Errorf("%s %s pass %d: %d %q Content-Type %q Allow %q Location %q\nwant %d %q Content-Type %q Allow %q Location %q",
					c.method, c.target, pass, rec.Code, rec.Body, hd.Get("Content-Type"), hd.Get("Allow"), hd.Get("Location"),
					c.code, c.body, c.contentType, c.allow, c.location)
			}
		}
	}
}
