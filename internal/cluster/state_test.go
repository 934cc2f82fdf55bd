package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nbticache/internal/cas"
	"nbticache/internal/engine"
)

func testSweepState() sweepState {
	return sweepState{
		Handle: "csweep-7",
		Spec:   engine.SweepSpec{Name: "checkpoint", Banks: []int{2, 4}},
	}
}

func TestSweepStateRoundTrip(t *testing.T) {
	want := testSweepState()
	blob, err := encodeSweepState(want)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(blob), stateBlobMagic) {
		t.Fatalf("blob does not start with the %q magic: %q", stateBlobMagic, blob[:8])
	}
	got, err := decodeSweepState(stateKey(want.Spec), blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}

	// A version-1 blob from when the checkpoint also carried the shard
	// assignments and the merged job IDs still decodes, to the handle
	// ID and spec: the keys it no longer reads are skipped.
	legacy, err := json.Marshal(struct {
		sweepState
		Assign map[string]string `json:"assign"`
		Merged []string          `json:"merged"`
	}{
		sweepState: want,
		Assign:     map[string]string{"job-0011223344556677": "http://shard-0:8080"},
		Merged:     []string{"job-0011223344556677", "job-8899aabbccddeeff"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(legacy), `"merged":[`) {
		t.Fatalf("legacy payload lacks the merged key: %s", legacy)
	}
	old := append(append([]byte(stateBlobMagic), stateBlobVersion), legacy...)
	got, err = decodeSweepState(stateKey(want.Spec), old)
	if err != nil {
		t.Fatalf("legacy blob with assign/merged keys: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy blob decoded to %+v, want %+v", got, want)
	}

	// The key is content-addressed on the spec alone: byte-equal specs
	// share a checkpoint slot, different specs never collide.
	if stateKey(want.Spec) != stateKey(testSweepState().Spec) {
		t.Fatal("stateKey is not deterministic")
	}
	other := want.Spec
	other.Name = "different"
	if stateKey(want.Spec) == stateKey(other) {
		t.Fatal("distinct specs share a state key")
	}
}

// TestSweepStateErrorChain mirrors the trace-blob codec discipline:
// every malformed input decodes to an error in the ErrBadState chain —
// wrapping the underlying cause where one exists — and never leaks a
// bare io sentinel.
func TestSweepStateErrorChain(t *testing.T) {
	st := testSweepState()
	key := stateKey(st.Spec)
	good, err := encodeSweepState(st)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mutate func([]byte) []byte) []byte {
		blob := append([]byte(nil), good...)
		return mutate(blob)
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"truncated header", corrupt(func(b []byte) []byte { return b[:3] })},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"unsupported version", corrupt(func(b []byte) []byte { b[len(stateBlobMagic)] = 99; return b })},
		{"malformed payload", corrupt(func(b []byte) []byte { return append(b[:len(stateBlobMagic)+1], "{truncated"...) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeSweepState(key, tc.blob)
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("err = %v, want ErrBadState in the chain", err)
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("bare io sentinel leaked through the codec: %v", err)
			}
		})
	}

	t.Run("malformed payload wraps the json cause", func(t *testing.T) {
		blob := append(append([]byte(nil), good[:len(stateBlobMagic)+1]...), "{oops"...)
		_, err := decodeSweepState(key, blob)
		var syn *json.SyntaxError
		if !errors.Is(err, ErrBadState) || !errors.As(err, &syn) {
			t.Fatalf("err = %v, want ErrBadState wrapping a *json.SyntaxError", err)
		}
	})

	t.Run("missing handle", func(t *testing.T) {
		anon := st
		anon.Handle = ""
		blob, err := encodeSweepState(anon)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeSweepState(stateKey(anon.Spec), blob); !errors.Is(err, ErrBadState) {
			t.Fatalf("err = %v, want ErrBadState", err)
		}
	})

	// The resumed-coordinator integrity check: a well-formed blob filed
	// under a key its payload's re-derived content address does not
	// match is rejected, exactly like the job/trace stores reject
	// renamed blobs.
	t.Run("content address mismatch", func(t *testing.T) {
		other := st
		other.Spec.Name = "different"
		if _, err := decodeSweepState(stateKey(other.Spec), good); !errors.Is(err, ErrBadState) {
			t.Fatalf("err = %v, want ErrBadState for a mis-keyed blob", err)
		}
	})
}

// TestResumeQuarantinesBadState: a coordinator restarting over a state
// directory holding only undecodable checkpoints resumes nothing and
// deletes the bad blobs, rather than resurrecting sweeps from bytes it
// cannot trust.
func TestResumeQuarantinesBadState(t *testing.T) {
	ts, _ := fakePeer(t)
	dir := t.TempDir()

	// Seed the state store with three bad blobs: garbage framing, a
	// mis-keyed (renamed) checkpoint, and a truncated one.
	store, err := cas.OpenDisk(filepath.Join(dir, "sweeps"), cas.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	st := testSweepState()
	good, err := encodeSweepState(st)
	if err != nil {
		t.Fatal(err)
	}
	seed := map[string][]byte{
		"sweep-0000000000000000": []byte("not a checkpoint"),
		"sweep-ffffffffffffffff": good,     // renamed: content address mismatch
		stateKey(st.Spec):        good[:5], // truncated payload
	}
	for k, v := range seed {
		if err := store.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := New(Options{Peers: []string{ts.URL}, HealthInterval: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	handles, err := c.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 0 {
		t.Fatalf("resumed %d sweeps from unreadable state, want 0", len(handles))
	}
	c.Close()

	store, err = cas.OpenDisk(filepath.Join(dir, "sweeps"), cas.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	left, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d bad state blobs survived quarantine: %+v", len(left), left)
	}
}
