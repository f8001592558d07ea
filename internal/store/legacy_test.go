package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

// legacyConfig is the config section of a format-v2 snapshot from before
// the section held only the served parameters: the whole matcher
// configuration, 17 fields under their Go names, at the paper's setting.
const legacyConfig = `{"TSim":0.6,"TLSI":0.1,"TEg":0.1,"LSIRank":10,"DisableVSim":false,"DisableLSim":false,"DisableLSI":false,"DisableIntegrate":false,"DisableRevise":false,"DisableInductive":false,"RandomOrder":false,"SingleStep":false,"NoDictionary":false,"Seed":0,"ExactSVD":false,"Candidates":0,"ExactScore":false}`

// TestRestoreLegacyConfigSection: a snapshot whose config section has
// the legacy shape still restores, under the same format version, with
// the paper's parameters; and the restored session answers from the
// snapshot's artifacts byte-identically to a cold session.
func TestRestoreLegacyConfigSection(t *testing.T) {
	c, _, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pairs := []string{"pt-en", "vi-en"}
	warm := service.New(c)
	for _, pair := range pairs {
		if _, err := warm.ServeMatch(ctx, protocol.MatchRequest{Pair: pair}); err != nil {
			t.Fatal(err)
		}
	}
	var current, legacy bytes.Buffer
	if err := warm.Save(&current); err != nil {
		t.Fatal(err)
	}
	if err := store.RewriteConfigSection(&legacy, &current, []byte(legacyConfig)); err != nil {
		t.Fatal(err)
	}

	snap, err := store.Read(bytes.NewReader(legacy.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if snap.Config != core.DefaultParams() {
		t.Errorf("legacy config section read as %+v, want %+v", snap.Config, core.DefaultParams())
	}
	restored, err := service.Restore(c, bytes.NewReader(legacy.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	cold := service.New(c)
	for _, pair := range pairs {
		got, err := restored.ServeMatch(ctx, protocol.MatchRequest{Pair: pair})
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.ServeMatch(ctx, protocol.MatchRequest{Pair: pair})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := withoutTimings(t, got), withoutTimings(t, want); !bytes.Equal(g, w) {
			t.Errorf("%s: restored answer differs from a cold build:\n got %s\nwant %s", pair, g, w)
		}
	}
	if ms := restored.CacheStats().Misses; ms != 0 {
		t.Errorf("restored session rebuilt %d artifacts; the snapshot should have served them", ms)
	}
}

// withoutTimings encodes a match answer without its wall-clock and
// cache-provenance fields, which differ between any two sessions.
func withoutTimings(t *testing.T, r *protocol.MatchResponse) []byte {
	t.Helper()
	cp := *r
	cp.ElapsedMS, cp.Cache = 0, protocol.CacheStats{}
	cp.Results = append([]protocol.TypeResult(nil), r.Results...)
	for i := range cp.Results {
		cp.Results[i].ElapsedMS = 0
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
