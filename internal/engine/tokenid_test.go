package engine

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"terids/internal/core"
	"terids/internal/obs"
	"terids/internal/snapshot"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// tokenIDChildEnv switches TestOutputIndependentOfTokenIDs into one of its
// child modes, "cold:<dir>" or "warm:<dir>". Token IDs are process-wide and
// permanent, so the only way to run the same workload under two different
// ID assignments is two fresh processes.
const tokenIDChildEnv = "TERIDS_TOKEN_ID_CHILD"

// TestOutputIndependentOfTokenIDs runs the fixture in two fresh processes:
// a cold one, and a warm one whose dictionary is first filled with unrelated
// tokens and then with the cold run's own tokens in shuffled order, so that
// every token gets a different ID and the ID order differs from the cold
// one. The Processor's pairs, the engine's per-arrival output at K ∈ {1, 3}
// and the encoded checkpoint bytes must be identical.
func TestOutputIndependentOfTokenIDs(t *testing.T) {
	if mode := os.Getenv(tokenIDChildEnv); mode != "" {
		tokenIDChild(t, mode)
		return
	}
	dir := t.TempDir()
	cold := runTokenIDChild(t, "cold", dir)
	warm := runTokenIDChild(t, "warm", dir)
	if !bytes.Equal(cold, warm) {
		cl, wl := strings.Split(string(cold), "\n"), strings.Split(string(warm), "\n")
		for i := 0; i < len(cl) && i < len(wl); i++ {
			if cl[i] != wl[i] {
				t.Fatalf("output line %d differs under other token IDs:\n cold %.200s\n warm %.200s", i+1, cl[i], wl[i])
			}
		}
		t.Fatalf("cold run wrote %d lines, warm run %d", len(cl), len(wl))
	}
}

func runTokenIDChild(t *testing.T, mode, dir string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestOutputIndependentOfTokenIDs$", "-test.count=1")
	cmd.Env = append(os.Environ(), tokenIDChildEnv+"="+mode+":"+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s child: %v\n%s", mode, err, out)
	}
	out, err := os.ReadFile(filepath.Join(dir, mode+".out"))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tokenIDChild is the body of one child process.
func tokenIDChild(t *testing.T, arg string) {
	mode, dir, _ := strings.Cut(arg, ":")
	if n := tokens.DictionarySize(); n != 0 {
		t.Fatalf("child starts with %d interned tokens, want an empty dictionary", n)
	}
	vocabPath := filepath.Join(dir, "vocab.txt")
	if mode == "warm" {
		prewarm(t, vocabPath)
	}
	out := tokenIDWorkload(t)
	if mode == "cold" {
		var vocab bytes.Buffer
		for id := 0; id < tokens.DictionarySize(); id++ {
			fmt.Fprintln(&vocab, tokens.Text(tokens.ID(id)))
		}
		if err := os.WriteFile(vocabPath, vocab.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, mode+".out"), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// prewarm interns more unrelated tokens than the cold run saw in total,
// then the cold run's tokens in shuffled order. The cold run assigned ID i
// to the i-th line of its vocabulary, so afterwards no token keeps its ID.
func prewarm(t *testing.T, vocabPath string) {
	raw, err := os.ReadFile(vocabPath)
	if err != nil {
		t.Fatal(err)
	}
	vocab := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	rng := rand.New(rand.NewSource(1))
	unrelated := make([]string, len(vocab)+1)
	for i := range unrelated {
		unrelated[i] = "prewarm" + strconv.Itoa(i)
	}
	rng.Shuffle(len(unrelated), func(i, j int) { unrelated[i], unrelated[j] = unrelated[j], unrelated[i] })
	shuffled := append([]string(nil), vocab...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, tok := range append(unrelated, shuffled...) {
		tokens.Intern(tok)
	}
	for coldID, tok := range vocab {
		if id, _ := tokens.Lookup(tok); int(id) == coldID {
			t.Fatalf("token %q kept its cold ID %d", tok, coldID)
		}
	}
}

// tokenIDWorkload renders everything the ID assignment must not influence:
// the Processor's per-arrival pairs, and per K the engine's per-arrival
// pairs over two passes of the stream plus its final checkpoint bytes. The
// second pass re-tokenizes every record from text and must intern nothing,
// as the token-dictionary gauge shows.
func tokenIDWorkload(t *testing.T) []byte {
	f := loadFixture(t)
	var buf bytes.Buffer
	perArrival, _ := runProcessor(t, f)
	for i, pairs := range perArrival {
		writePairs(&buf, "processor", int64(i), pairs)
	}
	for _, k := range []int{1, 3} {
		reg := obs.NewRegistry()
		var mu sync.Mutex
		got := map[int64][]core.Pair{}
		eng, err := New(f.sh, Config{Core: f.cfg, Shards: k, Obs: reg, OnResult: func(res Result) {
			mu.Lock()
			got[res.Seq] = res.Pairs
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SubmitBatch(f.stream); err != nil {
			t.Fatal(err)
		}
		size := dictionaryGauge(t, reg)
		replay := make([]*tuple.Record, len(f.stream))
		for i, r := range f.stream {
			vals := make([]string, r.D())
			for j := range vals {
				vals[j] = r.Value(j)
			}
			replay[i] = tuple.MustRecord(r.Schema(), r.RID+".p1", r.Stream, r.Seq+int64(len(f.stream)), vals)
		}
		if err := eng.SubmitBatch(replay); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if after := dictionaryGauge(t, reg); after != size {
			t.Fatalf("K=%d: replaying the pass grew the token dictionary from %v to %v", k, size, after)
		}
		for seq := int64(0); seq < int64(2*len(f.stream)); seq++ {
			writePairs(&buf, "engine K="+strconv.Itoa(k), seq, got[seq])
		}
		c, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var ckpt bytes.Buffer
		if err := snapshot.Encode(&ckpt, c); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "checkpoint K=%d %x\n", k, ckpt.Bytes())
	}
	return buf.Bytes()
}

func writePairs(buf *bytes.Buffer, who string, seq int64, pairs []core.Pair) {
	fmt.Fprintf(buf, "%s %d", who, seq)
	for _, p := range pairs {
		fmt.Fprintf(buf, " %s,%s,%.17g", p.A.RID, p.B.RID, p.Prob)
	}
	buf.WriteByte('\n')
}

// dictionaryGauge scrapes terids_token_dictionary_size from reg.
func dictionaryGauge(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "terids_token_dictionary_size "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatal("terids_token_dictionary_size missing from the registry")
	return 0
}
