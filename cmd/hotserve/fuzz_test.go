package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// elapsedField is the one field a GET body carries beyond its batch entry.
var elapsedField = regexp.MustCompile(`^\{"elapsed_ms":\d+,`)

// FuzzForecastQuery feeds untrusted input to both forecast endpoints: an
// arbitrary GET /forecast query string (parsed through queryFromURL) and
// an arbitrary /forecast/batch body. Neither may panic or answer outside
// 200/400/404/503, and a GET that succeeds must return, byte for byte,
// the entry the same query gets as a batch of one.
func FuzzForecastQuery(f *testing.F) {
	for _, seed := range []struct{ query, body string }{
		{"model=Tree&t=30&k=5", `{"queries":[{"model":"Tree","t":30,"k":5}]}`},
		{"model=Average&target=hot&h=3&w=7", `{"queries":[{"model":"Average","target":"hot","h":3,"w":7}]}`},
		{"model=Tree&k=-1", `{"queries":[{"model":"Tree","k":0},{"model":"Average","t":-4}]}`},
		{"model=Tree&t=2", `{"queries":[{"model":"Tree","t":2}]}`},
		{"k=3", `{"queries":[{}]}`},
		{"target=become", `{"queries":[{"target":"become"}]}`},
		{"model=Tree&t=99999&k=99999999999", `{"queries":[{"model":"Tree","k":99999999999}]}`},
		{"model=Average&k=03&model=Tree", `{"queries":[{"model":"Nope"}]}`},
		{"%zz&model=Average;k=2", `{"queries":`},
		{"", `not json`},
		{"model=Tree&h=03&w=%2B7&t=030", `{"queries":[{"model":"Tree","h":3,"w":7,"t":30}]}`},
	} {
		f.Add(seed.query, []byte(seed.body))
	}
	srv, _ := testServer(f, 8)
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		req := httptest.NewRequest("GET", "/forecast", nil)
		req.URL.RawQuery = query
		single := httptest.NewRecorder()
		srv.ServeHTTP(single, req)
		checkStatus(t, "GET", single.Code)

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/forecast/batch", strings.NewReader(string(body))))
		checkStatus(t, "batch", rec.Code)

		if single.Code != http.StatusOK {
			return
		}
		batch := batchOfOne(t, queryFromURL(req.URL.Query()))
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/forecast/batch", strings.NewReader(batch)))
		var out struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK || len(out.Results) != 1 {
			t.Fatalf("batch of one %s = %d %s (%v)", batch, rec.Code, rec.Body.String(), err)
		}
		got := elapsedField.ReplaceAllString(strings.TrimSuffix(single.Body.String(), "\n"), "{")
		if got != string(out.Results[0]) {
			t.Fatalf("GET ?%s diverges from its batch of one:\nsingle: %s\nbatch:  %s", query, got, out.Results[0])
		}
	})
}

func checkStatus(t *testing.T, route string, code int) {
	t.Helper()
	switch code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusServiceUnavailable:
	default:
		t.Fatalf("%s answered %d", route, code)
	}
}

// batchOfOne renders fq as a one-query /forecast/batch body. Every
// numeric selector of a GET that answered 200 parsed as an integer, and
// the JSON form selects by the same integers.
func batchOfOne(t *testing.T, fq forecastQuery) string {
	t.Helper()
	q := batchQuery{Model: fq.model, Target: fq.target}
	for _, f := range []struct {
		raw string
		dst **int
	}{{fq.h, &q.H}, {fq.w, &q.W}, {fq.t, &q.T}, {fq.k, &q.K}} {
		if f.raw == "" {
			continue
		}
		v, err := strconv.Atoi(f.raw)
		if err != nil {
			t.Fatalf("a 200 GET carried the unparsable selector %q", f.raw)
		}
		*f.dst = &v
	}
	b, err := json.Marshal(struct {
		Queries []batchQuery `json:"queries"`
	}{[]batchQuery{q}})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
