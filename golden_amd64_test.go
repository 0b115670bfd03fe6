//go:build amd64

package odin

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestGoldenFingerprints pins the exact output of a short seeded drift
// stream, run at 2 workers on both backends: the SHA-256 of every
// result's Fingerprint, in frame order, and the final Stats. The stream
// drifts once, so it is served first by the BatchNorm baseline and then by
// the lite model, whose conv layers fuse their LeakyReLU. The values were
// captured before Conv2D inference moved to cache-sized sample blocks;
// kernel and layer rewrites must keep every accumulation order, so they
// must reproduce them bit for bit (DESIGN.md §8, §13). The test is
// amd64-only because other architectures may fuse multiply-adds and round
// differently.
func TestGoldenFingerprints(t *testing.T) {
	const seed, perPhase, workers = 29, 40, 2
	golden := map[Backend]struct{ digest, stats string }{
		Float64: {
			digest: "8662430c4a162dcecf7a34f5add6a1ed8faab77336f21988e182e920713b7c32",
			stats:  "{Frames:120 Outliers:117 DriftEvents:1 SimTime:3.6459849178697037 FullFrames:120 LiteFrames:0 CountFrames:0 SkipFrames:0 Dropped:0}",
		},
		Float32: {
			digest: "c872af6c75d7853d2361043dd9a57ce51c6801fad4948eb7eef0577fdbb7394a",
			stats:  "{Frames:120 Outliers:117 DriftEvents:1 SimTime:3.6459849178697037 FullFrames:120 LiteFrames:0 CountFrames:0 SkipFrames:0 Dropped:0}",
		},
	}
	for _, backend := range []Backend{Float64, Float32} {
		t.Run(backend.String(), func(t *testing.T) {
			srv, err := New(append(fastServerOptions(seed), WithBackend(backend))...)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Bootstrap(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			frames := driftStream(srv, perPhase)
			stream, err := srv.OpenStream(context.Background(), StreamOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			in := make(chan *Frame)
			go func() {
				defer close(in)
				for _, f := range frames {
					in <- f
				}
			}()
			h := sha256.New()
			got := 0
			for res := range stream.Run(context.Background(), in) {
				fmt.Fprintln(h, res.Fingerprint())
				got++
			}
			if got != len(frames) {
				t.Fatalf("received %d/%d results", got, len(frames))
			}
			digest := hex.EncodeToString(h.Sum(nil))
			stats := fmt.Sprintf("%+v", srv.Stats())
			want := golden[backend]
			if digest != want.digest {
				t.Errorf("fingerprint digest %s, want %s", digest, want.digest)
			}
			if stats != want.stats {
				t.Errorf("stats\n got %s\nwant %s", stats, want.stats)
			}
		})
	}
}
