package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/wiki"
)

// startDaemon serves the same small synthetic corpus the CLI generates,
// exactly as wikimatchd would.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	corpus, _, err := repro.GenerateCorpus(repro.SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repro.NewHTTPHandler(repro.NewSession(corpus)))
	t.Cleanup(srv.Close)
	return srv
}

// runCmd executes one subcommand and returns its stdout.
func runCmd(t *testing.T, cmd func([]string, *bytes.Buffer) int, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if code := cmd(args, &out); code != 0 {
		t.Fatalf("wikimatch %v exited %d\n%s", args, code, out.String())
	}
	return out.String()
}

// TestRemoteMatchEquivalence asserts the round-trip contract of the
// client SDK: `wikimatch -remote` output is byte-identical to the
// in-process session path, for a full pair match and a single-type
// request — the CLI prints from the same wire DTOs either way, so any
// drift between the HTTP layer and the in-process executor shows up
// here as a diff.
func TestRemoteMatchEquivalence(t *testing.T) {
	srv := startDaemon(t)
	match := func(args []string, out *bytes.Buffer) int {
		var errBuf bytes.Buffer
		code := matchCmd(args, out, &errBuf)
		if errBuf.Len() > 0 {
			t.Logf("stderr: %s", errBuf.String())
		}
		return code
	}

	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"full pair pt-en", []string{"-pair", "pt-en"}, "== filme ~ film"},
		{"full pair vi-en", []string{"-pair", "vi-en"}, "== phim ~ film"},
		{"single type", []string{"-pair", "pt-en", "-type", "filme"}, "== filme ~ film"},
		{"threshold override", []string{"-pair", "pt-en", "-type", "filme", "-tsim", "0.8"}, "== filme ~ film"},
	} {
		t.Run(c.name, func(t *testing.T) {
			local := runCmd(t, match, c.args)
			remote := runCmd(t, match, append([]string{"-remote", srv.URL}, c.args...))
			if local != remote {
				t.Errorf("local and remote output differ\n--- local ---\n%s\n--- remote ---\n%s",
					firstDiff(local, remote), firstDiff(remote, local))
			}
			if !strings.Contains(local, c.want) {
				t.Errorf("output lost the %q alignment:\n%s", c.want, local)
			}
		})
	}
}

// TestRemoteMatchAllEquivalence is the all-pairs twin: the streamed
// batch (progress lines, cluster summary, gold evaluation) must print
// byte-identically through the local backend and the NDJSON wire.
// Timings are suppressed and workers pinned so completion order is
// deterministic.
func TestRemoteMatchAllEquivalence(t *testing.T) {
	srv := startDaemon(t)
	matchall := func(args []string, out *bytes.Buffer) int {
		var errBuf bytes.Buffer
		code := matchallCmd(args, out, &errBuf)
		if errBuf.Len() > 0 {
			t.Logf("stderr: %s", errBuf.String())
		}
		return code
	}
	base := []string{"-timings=false", "-workers", "1"}
	local := runCmd(t, matchall, base)
	remote := runCmd(t, matchall, append([]string{"-remote", srv.URL}, base...))
	if local != remote {
		t.Errorf("local and remote matchall output differ\n--- local ---\n%s\n--- remote ---\n%s",
			firstDiff(local, remote), firstDiff(remote, local))
	}
	for _, want := range []string{"plan pivot(en): pt-en vi-en", "cluster-induced correspondences vs gold", "pt-vi"} {
		if !strings.Contains(local, want) {
			t.Errorf("matchall output missing %q:\n%s", want, local)
		}
	}
}

// TestRemoteFlagValidation covers the CLI-level guard rails around
// -remote.
func TestRemoteFlagValidation(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := matchCmd([]string{"-pair", "bogus"}, &out, &errBuf); code != 2 {
		t.Errorf("bad pair exited %d, want 2", code)
	}
}

// TestScaleFlagValidation: an unknown -scale is a usage error in every
// subcommand that generates a corpus, not a silent fallback to small.
func TestScaleFlagValidation(t *testing.T) {
	for name, cmd := range map[string]func([]string, io.Writer, io.Writer) int{
		"match":      matchCmd,
		"precompute": precompute,
		"matchall":   matchallCmd,
		"audit":      auditCmd,
	} {
		var out, errBuf bytes.Buffer
		if code := cmd([]string{"-scale", "large"}, &out, &errBuf); code != 2 {
			t.Errorf("%s -scale large exited %d, want 2", name, code)
		}
		if !strings.Contains(errBuf.String(), `unknown corpus scale "large"`) {
			t.Errorf("%s stderr: %s", name, errBuf.String())
		}
	}
}

// firstDiff trims two strings to the neighbourhood of their first
// difference, keeping failure output readable.
func firstDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 200
	if start < 0 {
		start = 0
	}
	end := i + 200
	if end > len(a) {
		end = len(a)
	}
	return a[start:end]
}

// TestStreamTypeRejected: -stream with -type must fail loudly, not
// silently ignore the stream flag.
func TestStreamTypeRejected(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := matchCmd([]string{"-stream", "-type", "filme"}, &out, &errBuf); code != 2 {
		t.Errorf("-stream -type exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "cannot be combined") {
		t.Errorf("stderr: %s", errBuf.String())
	}
}

// TestRemoteLanguagesFromDaemon: with -remote, match, matchall and
// audit describe the corpus the daemon serves, not the corpus the CLI
// would generate locally, and match and matchall do not score the
// daemon's answers against the local corpus's gold data.
func TestRemoteLanguagesFromDaemon(t *testing.T) {
	cfg := repro.DefaultEditionsCorpus()
	cfg.Languages = []wiki.Language{"de", "en", "fr"}
	cfg.EntitiesPerType = 20
	corpus, _, err := repro.GenerateEditions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repro.NewHTTPHandler(repro.NewSession(corpus)))
	t.Cleanup(srv.Close)

	languages := "corpus languages: [de en fr]\n"
	skipped := "gold evaluation skipped: the daemon serves a different corpus\n"
	batchArgs := []string{"-remote", srv.URL, "-timings=false", "-workers", "1"}
	for _, tc := range []struct {
		name  string
		cmd   func([]string, io.Writer, io.Writer) int
		args  []string
		check func(out string) bool
	}{
		{"matchall", matchallCmd, batchArgs, func(out string) bool {
			return strings.HasPrefix(out, languages) && strings.HasSuffix(out, "\n"+skipped)
		}},
		{"audit", auditCmd, batchArgs, func(out string) bool {
			return strings.HasPrefix(out, languages)
		}},
		{"match", matchCmd, []string{"-remote", srv.URL, "-pair", "de-en"}, func(out string) bool {
			served := fmt.Sprintf("corpus: %v articles", corpus.Stats().Articles)
			return strings.HasPrefix(out, served) && strings.Contains(out, "\n\n"+skipped) &&
				!strings.Contains(out, "weighted P=")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if code := tc.cmd(tc.args, &out, &errBuf); code != 0 {
				t.Fatalf("exited %d\nstderr: %s", code, errBuf.String())
			}
			if !tc.check(out.String()) {
				t.Errorf("output does not describe the daemon's corpus or scores it against local gold data:\n%s", out.String())
			}
		})
	}
}
