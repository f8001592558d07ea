package ingest

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/synth"
)

// BenchmarkIngestDir times the dump-ingestion front door: the 12-edition
// corpus at ten times the fixture scale, written as plain TTL dumps and
// streamed back into a corpus by Dir. Every iteration checks the round
// trip by corpus fingerprint, so the numbers time the real assembly
// path, not a partial parse. Besides ns/op it reports throughput over
// the raw dump bytes (MiB/s) and the largest heap growth sampled during
// any iteration (peak-heap-MiB). CI holds them at ≥ 8 MiB/s and
// ≤ 512 MiB: ingestion stays bounded by the corpus it builds, never by
// the dump bytes it reads.
func BenchmarkIngestDir(b *testing.B) {
	cfg := synth.DefaultEditions()
	cfg.EntitiesPerType *= 10
	c, _, err := synth.Editions(cfg)
	if err != nil {
		b.Fatal(err)
	}
	want := c.Fingerprint()
	dir := b.TempDir()
	for _, l := range c.Languages() {
		writeDump(b, filepath.Join(dir, string(l)+"-infobox-properties.ttl"), func(w io.Writer) error {
			return WriteProperties(w, c, l)
		})
		writeDump(b, filepath.Join(dir, string(l)+"-interlanguage-links.ttl"), func(w io.Writer) error {
			return WriteLinks(w, c, l)
		})
	}
	// Drop the generated corpus so the sampled peak covers ingestion and
	// the corpus it assembles, not the generator's copy.
	c = nil

	ctx := context.Background()
	var read int64
	var ingesting time.Duration
	var peak uint64
	for b.Loop() {
		var res *Result
		grew := heapGrowth(func() {
			start := time.Now()
			res, err = Dir(ctx, dir, Options{})
			ingesting += time.Since(start)
		})
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Corpus.Fingerprint(); got != want {
			b.Fatalf("round trip diverged: fingerprint %x, want %x", got, want)
		}
		read += res.Bytes
		peak = max(peak, grew)
	}
	// MiB/s counts only the time inside Dir; ns/op also covers the GC
	// that gives each heap sample a clean baseline.
	b.ReportMetric(float64(read)/(1<<20)/ingesting.Seconds(), "MiB/s")
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MiB")
}

func writeDump(b *testing.B, path string, render func(io.Writer) error) {
	b.Helper()
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := render(f); err != nil {
		f.Close()
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}
