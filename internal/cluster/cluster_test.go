package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"secureproc/internal/api"
)

// roundTrips reports whether v, once decoded from a peer, encodes and
// decodes back to itself: what the entry node relays to its client is
// exactly what it decoded.
func roundTrips[T any](t *testing.T, v T) {
	t.Helper()
	wire, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-encoding %+v: %v", v, err)
	}
	var back T
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatalf("decoding re-encoded %s: %v", wire, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", back, v)
	}
}

// FuzzDecodeBody feeds arbitrary bytes to the decoder of a peer's 200
// answer to a forwarded sub-sweep. It must never panic, and whatever it
// accepts must survive the entry node's re-encoding unchanged.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range []string{
		`{"spec":{"bench":"gzip","scheme":"snc-lru","snc_kb":64,"snc_ways":0,"l2_kb":256,"l2_ways":4,"crypto_lat":50},"result":{"Scheme":"SNC-LRU","Cycles":12345,"Instructions":6789}}`,
		`{"count":1,"results":[{"spec":{"bench":"mcf","scheme":"xom"},"result":{"Cycles":1}}]}`,
		`{"count":2,"results":[{},null]}`,
		`{"result":{"Cycles":-1}}`,
		`{"spec":{"bench":"\xff"}}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if sweep, err := decodeBody(data); err == nil {
			roundTrips(t, sweep)
		}
	})
}

// FuzzDecodeNodeStats feeds arbitrary (status, body) pairs to the decoder
// of a peer's /v1/cluster/stats answer, the input of a /metrics fleet
// rollup. It must never panic, must refuse every status but 200, and
// whatever it accepts must survive re-encoding unchanged.
func FuzzDecodeNodeStats(f *testing.F) {
	f.Add(http.StatusOK, []byte(`{"self":"127.0.0.1:8716","simulations_total":3,"forwarded_total":1}`))
	f.Add(http.StatusOK, []byte(`{"simulations_total":-9223372036854775808}`))
	f.Add(http.StatusOK, []byte(`{"simulations_total":1e30}`))
	f.Add(http.StatusOK, []byte(`{} trailing`))
	f.Add(http.StatusNotFound, []byte(`{"error":{"code":"not_found","message":"cluster mode is off"}}`))
	f.Add(http.StatusInternalServerError, []byte(`{}`))
	f.Fuzz(func(t *testing.T, status int, data []byte) {
		ns, ok := decodeNodeStats(status, bytes.NewReader(data))
		if !ok {
			if ns != (api.NodeStats{}) {
				t.Fatalf("refused answer left %+v, want the zero NodeStats", ns)
			}
			return
		}
		if status != http.StatusOK {
			t.Fatalf("accepted a status-%d answer", status)
		}
		roundTrips(t, ns)
	})
}
