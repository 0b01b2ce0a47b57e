package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestUpdateBodyDecodes pins what POST /v1/update hands its Backend: for
// each body, the reply and the JSON encoding of the Update a recording
// backend received ("" where the handler refused the body before Submit),
// as recorded while Update's tuples were [][]string, on two passes. A 400
// that quotes the JSON decoder may name db.Tuple where it named []string.
// The rows with data after the object and with relations holding no tuple
// were queued (202) until the handler refused them.
func TestUpdateBodyDecodes(t *testing.T) {
	var got string
	b := newFakeBackend(baseView())
	b.submit = func(_ context.Context, u Update, _ bool) (*UpdateResult, error) {
		enc, err := json.Marshal(u)
		got = string(enc)
		return nil, err
	}
	h := New(b, Options{}).Handler()
	for pass := 0; pass < 2; pass++ {
		for _, c := range []struct {
			body   string
			code   int
			reply  string
			update string
		}{
			{`{"inserts": {"R": null}}`, 400, `{"error":"empty update: provide rule_source, inserts, or deletes"}`, ``},
			{`{"inserts": {"R": []}, "deletes": {"S": null}}`, 400, `{"error":"empty update: provide rule_source, inserts, or deletes"}`, ``},
			{`{"inserts": {"R": [null]}}`, 400, `{"error":"empty tuple in inserts[\"R\"]"}`, ``},
			{`{"inserts": {"R": [[]]}}`, 400, `{"error":"empty tuple in inserts[\"R\"]"}`, ``},
			{`{"deletes": {"R": [["a"], []]}}`, 400, `{"error":"empty tuple in deletes[\"R\"]"}`, ``},
			{`{"inserts": {"R": [["a", null]]}}`, 202, `{"status":"queued"}`, `{"inserts":{"R":[["a",""]]}}`},
			{`{"inserts": {"R": [[""]]}}`, 202, `{"status":"queued"}`, `{"inserts":{"R":[[""]]}}`},
			{`{"inserts": {"R": [["Zoë", "日本", "é😀", "<b>&amp;", "\u2028"]]}}`, 202, `{"status":"queued"}`, `{"inserts":{"R":[["Zoë","日本","é😀","\u003cb\u003e\u0026amp;","\u2028"]]}}`},
			{"{\"inserts\": {\"R\": [[\"\xff\", \"a\xc3\"]]}}", 202, `{"status":"queued"}`, "{\"inserts\":{\"R\":[[\"\uFFFD\",\"a\uFFFD\"]]}}"},
			{`{"inserts": {"R": [["\ud800", "\u0000", "tab\there"]]}}`, 202, `{"status":"queued"}`, "{\"inserts\":{\"R\":[[\"\uFFFD\",\"\\u0000\",\"tab\\there\"]]}}"},
			{`{"inserts": {"R": [["a"]]}, "deletes": {"R": [["b"], ["a"]]}}`, 202, `{"status":"queued"}`, `{"inserts":{"R":[["a"]]},"deletes":{"R":[["b"],["a"]]}}`},
			{`{"rule_source": "F: Q(x) :- R(x).", "inserts": {"R": [["a"]]}, "deletes": {"R": [["a"]]}}`, 202, `{"status":"queued"}`, `{"rule_source":"F: Q(x) :- R(x).","inserts":{"R":[["a"]]},"deletes":{"R":[["a"]]}}`},
			{`{"inserts": {"R": [["a"]], "R": [["b"]]}}`, 202, `{"status":"queued"}`, `{"inserts":{"R":[["b"]]}}`},
			{`{"INSERTS": {"R": [["a"]]}, "Deletes": {"S": [["b"]]}}`, 202, `{"status":"queued"}`, `{"inserts":{"R":[["a"]]},"deletes":{"S":[["b"]]}}`},
			{`{"inserts": {"R": [["a"]]}} trailing`, 400, `{"error":"bad update body: invalid character 'a' in literal true (expecting 'u')"}`, ``},
			{`{"inserts": {"R": [["a"]]}} {}`, 400, `{"error":"bad update body: data after the update object"}`, ``},
			{"{\"inserts\": {\"R\": [[\"a\"]]}} \r\n\t\n", 202, `{"status":"queued"}`, `{"inserts":{"R":[["a"]]}}`},
			{`{"inserts": {"R": [["a"]]}, "extra": 1}`, 400, `{"error":"bad update body: json: unknown field \"extra\""}`, ``},
			{`{"inserts": {"R": [["a"]]}, "rule_source": 7}`, 400, `{"error":"bad update body: json: cannot unmarshal number into Go struct field Update.rule_source of type string"}`, ``},
			{`{"inserts": {"R": [[1]]}}`, 400, `{"error":"bad update body: json: cannot unmarshal number into Go struct field Update.inserts of type string"}`, ``},
			{`{"inserts": {"R": [["a", true]]}}`, 400, `{"error":"bad update body: json: cannot unmarshal bool into Go struct field Update.inserts of type string"}`, ``},
			{`{"inserts": {"R": ["a"]}}`, 400, `{"error":"bad update body: json: cannot unmarshal string into Go struct field Update.inserts of type []string"}`, ``},
			{`{"inserts": {"R": "a"}}`, 400, `{"error":"bad update body: json: cannot unmarshal string into Go struct field Update.inserts of type [][]string"}`, ``},
			{`{"inserts": {"R": [{"a": "b"}]}}`, 400, `{"error":"bad update body: json: cannot unmarshal object into Go struct field Update.inserts of type []string"}`, ``},
			{`{"inserts": [["a"]]}`, 400, `{"error":"bad update body: json: cannot unmarshal array into Go struct field Update.inserts of type map[string][][]string"}`, ``},
			{`null`, 400, `{"error":"empty update: provide rule_source, inserts, or deletes"}`, ``},
		} {
			got = ""
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(c.body)))
			reply := strings.ReplaceAll(strings.TrimSuffix(rec.Body.String(), "\n"), "db.Tuple", "[]string")
			if rec.Code != c.code || reply != c.reply || got != c.update {
				t.Errorf("POST %s pass %d: %d %s, submitted %s\nwant %d %s, submitted %s",
					c.body, pass, rec.Code, reply, got, c.code, c.reply, c.update)
			}
		}
	}
}
