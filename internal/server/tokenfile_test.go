package server

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzParseTokenFile fuzzes the -token-file parser: it never panics,
// and every principal list it accepts passes ValidatePrincipals and
// survives a JSON round trip unchanged. Run continuously with
//
//	go test -fuzz FuzzParseTokenFile ./internal/server
func FuzzParseTokenFile(f *testing.F) {
	for _, seed := range []string{
		`{"principals": [
		  {"token": "s3cret", "name": "alice", "scopes": ["read"], "datasets": ["wiki"], "rate_qps": 100, "burst": 200},
		  {"token": "0p5", "name": "ops", "scopes": ["read","write","admin"]}]}`,
		`{"principals": [{"token": "t", "name": "n", "scopes": ["read"], "datasets": ["*"], "rate_qps": -1}]}`,
		`{"principals": [{"token": "t", "name": "n", "scopes": ["read"], "datasets": []}]}`,
		`{"principals": []}`, `{}`, `null`, ``, `[]`, `{"principals": null}`,
		`{"principals": [{"token": "t", "name": "n", "scopes": ["root"]}]}`,
		`{"principals": [{"token": "t", "name": "n", "scopes": []}]}`,
		`{"principals": [{"token": "", "name": "n", "scopes": ["read"]}]}`,
		`{"principals": [{"token": "t", "name": "a", "scopes": ["read"]}, {"token": "t", "name": "b", "scopes": ["read"]}]}`,
		`{"principals": [{"token": "t", "name": "a", "scopes": ["read"]}, {"token": "u", "name": "a", "scopes": ["read"]}]}`,
		`{"principals": [{"token": "t", "name": "n", "scopes": ["read"], "datasets": ["admin"]}]}`,
		`{"principals": [{"token": "t", "name": "n", "scopes": ["read"], "extra": 1}]}`,
		`{"principals": [{"TOKEN": "t", "Name": "n", "scopes": ["read"]}]} trailing`,
		`{"principals": [{"token": "té\ud800", "name": "n\\"", "scopes": ["read"], "burst": 1e308}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ps, err := ParseTokenFile(raw)
		if err != nil {
			return
		}
		if err := ValidatePrincipals(ps); err != nil {
			t.Fatalf("accepted a list ValidatePrincipals refuses: %v", err)
		}
		again, err := json.Marshal(tokenFile{Principals: ps})
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseTokenFile(again)
		if err != nil {
			t.Fatalf("re-encoded list %s refused: %v", again, err)
		}
		if !slices.EqualFunc(ps, back, samePrincipal) {
			t.Fatalf("round trip changed %+v into %+v", ps, back)
		}
	})
}

// samePrincipal compares principals field by field, an absent dataset
// list equal to an empty one (the encoding omits both).
func samePrincipal(a, b Principal) bool {
	return a.Token == b.Token && a.Name == b.Name && slices.Equal(a.Scopes, b.Scopes) &&
		slices.Equal(a.Datasets, b.Datasets) && a.RateQPS == b.RateQPS && a.Burst == b.Burst
}
