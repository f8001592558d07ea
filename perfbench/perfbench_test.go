package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestWorkloadsOneOp sets every workload up and runs one untraced and
// one traced op with all their output checks, then the end-of-run
// checks.
func TestWorkloadsOneOp(t *testing.T) {
	ctx := context.Background()
	for _, sp := range specs() {
		t.Run(sp.name, func(t *testing.T) {
			w, err := sp.setup(ctx, 7, t.TempDir())
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			defer w.close()
			if sp.name != "dump-to-audit" { // one op there takes seconds; the traced op below covers it
				if _, err := w.op(ctx, 0, scope{}); err != nil {
					t.Fatalf("untraced op: %v", err)
				}
			}
			if err := w.prepareTrace(ctx); err != nil {
				t.Fatalf("prepare trace: %v", err)
			}
			tr := newTracer()
			sc, end := tr.root(1)
			_, err = w.op(ctx, 7, sc) // op 7 is match-churn's write
			end()
			if err != nil {
				t.Fatalf("traced op: %v", err)
			}
			if rep := tr.report(); rep.ops != 1 || len(rep.rows) == 0 {
				t.Errorf("traced op recorded %d ops and %d span names", rep.ops, len(rep.rows))
			}
			if _, err := w.probe(ctx, 0); err != nil {
				t.Fatalf("write probe: %v", err)
			}
			f1, err := w.finish(ctx)
			if err != nil {
				t.Fatalf("finish: %v", err)
			}
			if f1 < sp.f1Floor {
				t.Errorf("match F1 %.4f below the floor %.2f", f1, sp.f1Floor)
			}
		})
	}
}

// TestTamperedResponseFails serves match-warm through a proxy that
// renames one attribute in every answer; every op must count as failed.
func TestTamperedResponseFails(t *testing.T) {
	ctx := context.Background()
	w, err := setupWarm(ctx, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	p := w.(warm).paperServing
	h := service.NewHandler(p.sess)
	tampered, err := newServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := bytes.Replace(rec.Body.Bytes(), []byte(`"a":"`), []byte(`"a":"x`), 1)
		rw.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	}))
	if err != nil {
		t.Fatal(err)
	}
	p.srv.close()
	p.srv = tampered

	st := drive(ctx, w, 0, 200*time.Millisecond, nil, io.Discard)
	if st.attempted == 0 || st.failed != st.attempted {
		t.Fatalf("%d of %d tampered ops counted as failed", st.failed, st.attempted)
	}
	if _, err := w.finish(ctx); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("finish on tampered answers: %v", err)
	}
}
