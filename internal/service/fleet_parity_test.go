package service_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/service"
)

// fleetDiffers names the golden error rows a fleet answers differently
// from a single binary, and why.
var fleetDiffers = map[string]string{
	"v1_error_delta_remove_missing": "a fleet answers a delta with per-shard outcomes in a 200 FleetDeltaResponse",
}

// TestFleetErrorParity replays the v1 golden error rows (bad pair,
// scope mismatch, stream+type, unknown type and hub, 405, unknown route,
// 413 and the rest) through a 2-shard router and requires the status
// and envelope a single binary answers with, request IDs aside.
func TestFleetErrorParity(t *testing.T) {
	c := service.SmallCorpus(t)
	const count = 2
	addrs := make([]string, count)
	for i := range addrs {
		label := "shard " + string(rune('0'+i)) + "/2"
		srv := httptest.NewServer(service.NewHandler(service.New(c), service.WithShardGate(label, router.Owned(i, count))))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	for _, row := range service.V1GoldenRows() {
		if row.Status < 400 || fleetDiffers[row.Name] != "" {
			continue
		}
		t.Run(row.Name, func(t *testing.T) {
			rt, err := router.New(addrs, router.WithHealthInterval(-1),
				router.WithClientOptions(client.WithRetries(0, time.Millisecond)),
				router.WithHandlerOptions(row.Opts...))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			fleet := httptest.NewServer(rt.Handler())
			defer fleet.Close()
			single := httptest.NewServer(service.NewHandler(service.New(c), row.Opts...))
			defer single.Close()

			wantStatus, want := envelopeOf(t, single.URL, row)
			gotStatus, got := envelopeOf(t, fleet.URL, row)
			if wantStatus != row.Status {
				t.Fatalf("single binary answered %d, golden row says %d", wantStatus, row.Status)
			}
			if gotStatus != wantStatus || got != want {
				t.Errorf("fleet answered %d %s\nsingle binary %d %s", gotStatus, got, wantStatus, want)
			}
		})
	}
}

// envelopeOf sends row to base and returns the status and the error
// envelope re-encoded with any requestId detail blanked.
func envelopeOf(t *testing.T, base string, row service.GoldenRow) (int, string) {
	t.Helper()
	var body io.Reader
	if row.Body != "" {
		body = strings.NewReader(row.Body)
	}
	req, err := http.NewRequest(row.Method, base+row.Path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env protocol.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("%s %s: no error envelope (%v)", row.Method, row.Path, err)
	}
	if _, ok := env.Error.Details["requestId"]; ok {
		env.Error.Details["requestId"] = "normalized"
	}
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}
