package station

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// jsonNames lists the JSON field names of struct value v.
func jsonNames(v any) []string {
	var names []string
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
	}
	return names
}

// knownFields reports whether every key of a JSON object body names one of
// the fields (matched case-insensitively, as encoding/json does).
func knownFields(body []byte, names []string) bool {
	var obj map[string]json.RawMessage
	if json.Unmarshal(body, &obj) != nil {
		return true // not an object: nothing to name
	}
	for key := range obj {
		found := false
		for _, n := range names {
			found = found || strings.EqualFold(key, n)
		}
		if !found {
			return false
		}
	}
	return true
}

// FuzzDecodeBody: decodeBody is total on arbitrary request bodies, and what
// it accepts is one JSON value of at most 1 MiB naming only known fields.
func FuzzDecodeBody(f *testing.F) {
	decode := func(body []byte, v any) error {
		return decodeBody(httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)), v)
	}
	padded := append([]byte(`{"kind":"sum"}`), bytes.Repeat([]byte(" "), 1<<20)...)
	if err := decode(padded, &queryRequest{}); err == nil {
		f.Fatal("decodeBody accepted a body over 1 MiB")
	}
	for _, s := range []string{
		`{"kind":"sum","seed":7,"async":true,"timeout_ms":500}`,
		`{"kind":"max","period_ms":250,"jitter":0.2,"keep":4}`,
		`{"kind":"sum","seed":null}`, `null`, ` {"KIND":"avg"} `,
		`{"kind":"sum","bogus":1}`, `{"kind":"sum"}}`, `{"kind":"sum"}]`,
		`{"kind":"sum"} {"kind":"max"}`, `{"kind":"sum"} x`, `[]`, `{`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, v := range []any{&queryRequest{}, &scheduleRequest{}} {
			if decode(body, v) != nil {
				continue
			}
			switch {
			case len(body) > 1<<20:
				t.Fatalf("accepted a %d-byte body into %T", len(body), v)
			case !json.Valid(body):
				t.Fatalf("accepted %q into %T: not one JSON value", body, v)
			case !knownFields(body, jsonNames(reflect.ValueOf(v).Elem().Interface())):
				t.Fatalf("accepted %q into %T: unknown field", body, v)
			}
		}
	})
}
