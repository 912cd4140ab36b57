package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"terids/internal/testutil"
)

// corpusBytes reads one committed FuzzSnapshotDecode corpus entry: files
// written by earlier builds, kept as real wire bytes.
func corpusBytes(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	if !ok || !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		t.Fatalf("corpus file %s is not a single []byte entry", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("corpus file %s: %v", name, err)
	}
	return []byte(s)
}

// TestDecodeSkipsShardSlots: full checkpoints and deltas written by
// builds with the shard rebalancer carry a 256-entry slot table. They must
// still decode, to the same state and the same current encoding as the
// table-free file.
func TestDecodeSkipsShardSlots(t *testing.T) {
	var full bytes.Buffer
	if err := Encode(&full, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	legacy := testutil.WithShardSlots(t, full.Bytes(), 4)
	// The rewrite reproduces what the older build wrote, byte for byte.
	if want := corpusBytes(t, "seed-v2-slot-table"); !bytes.Equal(legacy, want) {
		t.Fatal("slot-table rewrite differs from the committed older-build checkpoint")
	}
	want, err := Decode(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("older-build checkpoint no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("older-build checkpoint decoded to %+v, want %+v", got, want)
	}
	var re bytes.Buffer
	if err := Encode(&re, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), full.Bytes()) {
		t.Fatal("re-encoded older-build checkpoint differs from the current encoding")
	}

	d, err := ComputeDelta(sampleCheckpoint(), evolvedCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if err := EncodeDelta(&delta, d); err != nil {
		t.Fatal(err)
	}
	legacyDelta := testutil.WithShardSlots(t, delta.Bytes(), 2)
	if want := corpusBytes(t, "seed-v3-delta"); !bytes.Equal(legacyDelta, want) {
		t.Fatal("slot-table rewrite differs from the committed older-build delta")
	}
	gotD, err := DecodeDelta(bytes.NewReader(legacyDelta))
	if err != nil {
		t.Fatalf("older-build delta no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(gotD, d) {
		t.Fatalf("older-build delta decoded to %+v, want %+v", gotD, d)
	}
}

// TestDecodeRejectsVersion1: the version-1 format (before the slot-table
// section existed) is no longer read.
func TestDecodeRejectsVersion1(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf.Bytes()...)
	v1[len(Magic)], v1[len(Magic)+1] = 1, 0
	_, err := Decode(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("v1 decode err = %v, want the format version error", err)
	}
	if _, _, err := DecodeAny(bytes.NewReader(v1)); err == nil {
		t.Fatal("DecodeAny accepted a v1 checkpoint")
	}
}

// TestFuzzCorpusValidity pins the committed FuzzSnapshotDecode corpus: its
// valid entries (older-build files included) still decode, so the fuzzer
// keeps starting from accepted inputs, and its corrupt entries still fail.
func TestFuzzCorpusValidity(t *testing.T) {
	for name, valid := range map[string]bool{
		"seed-v2-plain":           true,
		"seed-v2-slot-table":      true,
		"seed-v3-delta":           true,
		"seed-flipped-byte":       false,
		"seed-truncated":          false,
		"seed-v3-delta-corrupt":   false,
		"seed-v3-delta-truncated": false,
	} {
		_, _, err := DecodeAny(bytes.NewReader(corpusBytes(t, name)))
		if valid && err != nil {
			t.Errorf("%s: valid corpus entry rejected: %v", name, err)
		}
		if !valid && err == nil {
			t.Errorf("%s: corrupt corpus entry decoded", name)
		}
	}
}
