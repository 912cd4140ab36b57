package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"terids/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current Processor")

// goldenCase is one small generated workload whose full Processor output is
// pinned byte for byte under testdata/.
type goldenCase struct {
	profile string
	scale   float64
	xi      float64 // ξ: share of stream tuples made incomplete
	w       int
	seed    int64
}

func (c goldenCase) name() string {
	return fmt.Sprintf("%s_xi%g_seed%d", c.profile, c.xi, c.seed)
}

var goldenCases = []goldenCase{
	{profile: "Citations", scale: 0.3, xi: 0.5, w: 60, seed: 3},
	{profile: "Citations", scale: 0.3, xi: 0.5, w: 60, seed: 1},
	{profile: "EBooks", scale: 0.12, xi: 0, w: 120, seed: 4},
	{profile: "EBooks", scale: 0.12, xi: 0, w: 120, seed: 5},
}

// goldenOutput replays c through a Processor and renders every arrival's
// new pairs (RIDs and Prob as %.17g) followed by the final PruneStats.
func goldenOutput(t *testing.T, c goldenCase) []byte {
	t.Helper()
	prof, err := dataset.ProfileByName(c.profile)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.Generate(prof, dataset.Options{
		Scale: c.scale, MissingRate: c.xi, MissingAttrs: 1, RepoRatio: 0.5, Seed: c.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Prepare(data.Repo, DefaultPrepareConfig(data.Keywords))
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewProcessor(sh, Config{
		Keywords:     data.Keywords,
		Gamma:        0.5 * float64(data.Schema.D()),
		Alpha:        0.5,
		WindowSize:   c.w,
		Streams:      2,
		TrackPruning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range data.Stream {
		pairs, err := proc.Advance(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s", r.RID)
		for _, p := range pairs {
			fmt.Fprintf(&buf, " %s,%s,%.17g", p.A.RID, p.B.RID, p.Prob)
		}
		buf.WriteByte('\n')
	}
	ps := proc.PruneStats()
	fmt.Fprintf(&buf, "prune considered=%d topic=%d simub=%d probub=%d inst=%d refined=%d\n",
		ps.Considered, ps.Topic, ps.SimUB, ps.ProbUB, ps.InstPair, ps.Refined)
	return buf.Bytes()
}

// TestGoldenOutput pins the Processor's complete output on small Citations
// (ξ=0.5, m=1) and EBooks (ξ=0) workloads. Any change to the token
// representation, the indexes or the pruning cascade that alters a single
// pair, probability bit or pruning count fails here. Regenerate with
// `go test ./internal/core -run TestGoldenOutput -update` only when the
// output is meant to change.
func TestGoldenOutput(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name(), func(t *testing.T) {
			got := goldenOutput(t, c)
			path := filepath.Join("testdata", c.name()+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
