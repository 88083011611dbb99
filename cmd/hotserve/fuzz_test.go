package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// elapsedField is the one field a GET body carries beyond its batch entry.
var elapsedField = regexp.MustCompile(`^\{"elapsed_ms":\d+,`)

// queryFromURL is the reference for parseQuery: GET /forecast's
// parameters read through url.Values, as the server once parsed them. An
// empty parameter counts as absent.
func queryFromURL(v url.Values) (batchQuery, error) {
	var ints [4]int
	var opt [4]*int
	for i, key := range [...]string{"h", "w", "t", "k"} {
		raw := v.Get(key)
		if raw == "" {
			continue
		}
		n, err := strconv.Atoi(raw)
		if err != nil {
			if key == "k" {
				return batchQuery{}, errors.New("bad k")
			}
			return batchQuery{}, fmt.Errorf("bad %s %q", key, raw)
		}
		ints[i] = n
		opt[i] = &ints[i]
	}
	return batchQuery{Model: v.Get("model"), Target: v.Get("target"),
		H: opt[0], W: opt[1], T: opt[2], K: opt[3]}, nil
}

// FuzzForecastQuery feeds untrusted input to both forecast endpoints: an
// arbitrary GET /forecast query string and an arbitrary /forecast/batch
// body. parseQuery must read the query exactly as queryFromURL reads its
// url.Values (same query, same error). Neither endpoint may panic or
// answer outside 200/400/404/503, and a GET that succeeds must return,
// byte for byte, the entry the same query gets as a batch of one.
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
		{"t=&t=30&k=%zz&k=4&mod%65l=Tree+A&model=Average&h=1;2&h=x", `{"queries":[{"model":"Tree A"}]}`},
		{"&&=&model&target=%68ot&w=+7&k=+", `{"queries":[{"target":"hot","w":7}]}`},
	} {
		f.Add(seed.query, []byte(seed.body))
	}
	srv, _ := testServer(f, 8)
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		values, _ := url.ParseQuery(query)
		want, wantErr := queryFromURL(values)
		q, err := parseQuery(query)
		if !reflect.DeepEqual(q, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			got, _ := json.Marshal(q)
			ref, _ := json.Marshal(want)
			t.Fatalf("parseQuery(%q) = %s, %v; url.Values reads %s, %v", query, got, err, ref, wantErr)
		}

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
		if err != nil {
			t.Fatalf("a 200 GET ?%s does not parse: %v", query, err)
		}
		batch := batchOfOne(t, q)
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

// batchOfOne renders q, as a 200 GET parsed it, as a one-query
// /forecast/batch body.
func batchOfOne(t *testing.T, q batchQuery) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Queries []batchQuery `json:"queries"`
	}{[]batchQuery{q}})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
