package main

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

func TestInprocTransportRoundTrip(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/{dataset}/echo", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Dataset", r.PathValue("dataset"))
		w.Header().Set("X-Query", r.URL.Query().Get("s"))
		w.Header().Set("X-Seen-Header", r.Header.Get("X-Hopdb-Request-Id"))
		w.Header().Set("X-Request-Uri", r.RequestURI)
		w.WriteHeader(http.StatusTeapot)
		w.Write(append([]byte(r.Method+" "), body...))
	})
	mux.HandleFunc("/plain", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok")) // no explicit status
	})
	rt := &inprocTransport{h: mux}
	client := &http.Client{Transport: rt}

	req, err := http.NewRequest(http.MethodPost, benchHost+"/v1/roads/echo?s=12&t=3", bytes.NewReader([]byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Hopdb-Request-Id", "bench-9")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTeapot {
		t.Errorf("status = %d, want %d", resp.StatusCode, http.StatusTeapot)
	}
	if string(body) != "POST payload" {
		t.Errorf("body = %q, want %q", body, "POST payload")
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("ContentLength = %d, want %d", resp.ContentLength, len(body))
	}
	for key, want := range map[string]string{
		"X-Dataset":     "roads",
		"X-Query":       "12",
		"X-Seen-Header": "bench-9",
		"X-Request-Uri": "/v1/roads/echo?s=12&t=3",
	} {
		if got := resp.Header.Get(key); got != want {
			t.Errorf("response header %s = %q, want %q", key, got, want)
		}
	}
	if req.RequestURI != "" {
		t.Error("RoundTrip modified the caller's request")
	}

	resp, err = client.Get(benchHost + "/plain")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := responseBytes(resp); err != nil || string(got) != "ok" || resp.StatusCode != http.StatusOK {
		t.Errorf("plain GET = %d %q %v, want 200 \"ok\"", resp.StatusCode, got, err)
	}
	resp, err = client.Get(benchHost + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unrouted path = %d, want 404", resp.StatusCode)
	}
}

func TestParseDistanceBody(t *testing.T) {
	for _, tc := range []struct {
		body string
		want uint32
		ok   bool
	}{
		{`{"s":1,"t":2,"distance":3,"reachable":true}` + "\n", 3, true},
		{`{"reachable":true,"distance":41,"t":2}`, 41, true},
		{`{"s":1,"t":9,"reachable":false}`, 0xFFFFFFFF, true},
		{`{"error":"boom"}`, 0, false},
		{`{"distance":}`, 0, false},
	} {
		got, ok := parseDistanceBody([]byte(tc.body))
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseDistanceBody(%s) = %d, %v; want %d, %v", tc.body, got, ok, tc.want, tc.ok)
		}
	}
}
