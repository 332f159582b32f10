package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"aprof/internal/server"
)

// fakeStore is an in-memory ProfileStore.
type fakeStore map[string][]byte

func (f fakeStore) ResultIDs() []string {
	ids := make([]string, 0, len(f))
	for id := range f {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (f fakeStore) Result(id string) (*server.SessionResult, bool) {
	p, ok := f[id]
	if !ok {
		return nil, false
	}
	return &server.SessionResult{ID: id, Profile: p}, true
}

// peerServer serves a single-node /profiles/ view over a fakeStore, the
// same shape a real aprofd debug server exposes.
func peerServer(t *testing.T, store fakeStore) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewFanout(store, nil, time.Second).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// hostOf strips the scheme from an httptest server URL.
func hostOf(ts *httptest.Server) string {
	return ts.Listener.Addr().String()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestFanoutMergesIndexes: the cluster index is the sorted union of the
// local and every peer's sessions.
func TestFanoutMergesIndexes(t *testing.T) {
	p1 := peerServer(t, fakeStore{"s-b": []byte(`{"b":1}`), "s-shared": []byte(`{"x":1}`)})
	p2 := peerServer(t, fakeStore{"s-c": []byte(`{"c":1}`)})
	local := fakeStore{"s-a": []byte(`{"a":1}`), "s-shared": []byte(`{"x":1}`)}

	ts := httptest.NewServer(NewFanout(local, []string{hostOf(p1), hostOf(p2)}, time.Second).Handler())
	defer ts.Close()

	var idx struct {
		Sessions []string `json:"sessions"`
		Partial  bool     `json:"partial"`
	}
	if code := getJSON(t, ts.URL+"/profiles/", &idx); code != http.StatusOK {
		t.Fatalf("index status %d", code)
	}
	want := []string{"s-a", "s-b", "s-c", "s-shared"}
	if !reflect.DeepEqual(idx.Sessions, want) {
		t.Fatalf("merged index = %v, want %v", idx.Sessions, want)
	}
	if idx.Partial {
		t.Fatal("index marked partial with every peer reachable")
	}
}

// TestFanoutByIDPrefersLocalThenPeers: a local hit never queries peers; a
// remote-only session is fetched from its peer; a missing one is 404.
func TestFanoutByIDPrefersLocalThenPeers(t *testing.T) {
	peer := peerServer(t, fakeStore{"remote": []byte(`{"remote":true}`)})
	local := fakeStore{"local": []byte(`{"local":true}`)}
	ts := httptest.NewServer(NewFanout(local, []string{hostOf(peer)}, time.Second).Handler())
	defer ts.Close()

	get := func(id string) (int, []byte) {
		resp, err := http.Get(ts.URL + "/profiles/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if code, body := get("local"); code != http.StatusOK || string(body) != `{"local":true}` {
		t.Fatalf("local profile: %d %q", code, body)
	}
	if code, body := get("remote"); code != http.StatusOK || string(body) != `{"remote":true}` {
		t.Fatalf("remote profile: %d %q", code, body)
	}
	if code, _ := get("nowhere"); code != http.StatusNotFound {
		t.Fatalf("missing profile: %d, want 404", code)
	}
}

// TestFanoutToleratesDeadPeer: an unreachable peer degrades the index to
// partial — and by-id lookups still answer from the live members.
func TestFanoutToleratesDeadPeer(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := hostOf(dead)
	dead.Close() // now unreachable

	live := peerServer(t, fakeStore{"alive": []byte(`{"ok":1}`)})
	local := fakeStore{}
	ts := httptest.NewServer(NewFanout(local, []string{deadAddr, hostOf(live)}, 200*time.Millisecond).Handler())
	defer ts.Close()

	var idx struct {
		Sessions []string `json:"sessions"`
		Partial  bool     `json:"partial"`
	}
	if code := getJSON(t, ts.URL+"/profiles/", &idx); code != http.StatusOK {
		t.Fatalf("index status %d", code)
	}
	if !idx.Partial {
		t.Fatal("index not marked partial with a dead peer")
	}
	if !reflect.DeepEqual(idx.Sessions, []string{"alive"}) {
		t.Fatalf("index = %v, want [alive]", idx.Sessions)
	}
	if code := getJSON(t, ts.URL+"/profiles/alive", nil); code != http.StatusOK {
		t.Fatalf("live-peer profile status %d", code)
	}
}

// TestFanoutFullMeshDoesNotRecurse: in a real deployment every node's
// /profiles/ is itself a fan-out (full peer mesh). Peer-to-peer queries
// must be answered from the peer's local store only — otherwise an index
// query recurses (A asks B, whose fan-out asks A and C, ...) into an
// exponential request storm where every view times out to empty/partial.
// Three fan-outs in a full mesh must each serve the complete, non-partial
// union, and any node must serve any session by id, with exactly the peer
// queries one non-recursive hop makes: each node counts the requests that
// carry fanoutHeader.
func TestFanoutFullMeshDoesNotRecurse(t *testing.T) {
	stores := []fakeStore{
		{"s-a": []byte(`{"a":1}`)},
		{"s-b": []byte(`{"b":1}`)},
		{"s-c": []byte(`{"c":1}`)},
	}
	// Two-pass setup: bind listeners first to learn every address, then
	// mount each node's fan-out with the full peer list.
	servers := make([]*httptest.Server, len(stores))
	muxes := make([]*http.ServeMux, len(stores))
	hops := make([]atomic.Int64, len(stores))
	for i := range stores {
		muxes[i] = http.NewServeMux()
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(fanoutHeader) != "" {
				hops[i].Add(1)
			}
			muxes[i].ServeHTTP(w, r)
		}))
		defer servers[i].Close()
	}
	peersOf := make([][]int, len(stores))
	for i := range stores {
		var peers []string
		for j := range servers {
			if j != i {
				peers = append(peers, hostOf(servers[j]))
				peersOf[i] = append(peersOf[i], j)
			}
		}
		muxes[i].Handle("/profiles/", NewFanout(stores[i], peers, 10*time.Second).Handler())
	}

	// One hop per query: node i's index asks each peer once, and a session
	// held by node k is asked of i's peers in order, up to and including k.
	wantHops := make([]int64, len(stores))
	want := []string{"s-a", "s-b", "s-c"}
	for i, ts := range servers {
		var idx struct {
			Sessions []string `json:"sessions"`
			Partial  bool     `json:"partial"`
		}
		if code := getJSON(t, ts.URL+"/profiles/", &idx); code != http.StatusOK {
			t.Fatalf("node %d index status %d", i, code)
		}
		if idx.Partial {
			t.Fatalf("node %d index partial in a fully-live mesh", i)
		}
		if !reflect.DeepEqual(idx.Sessions, want) {
			t.Fatalf("node %d index = %v, want %v", i, idx.Sessions, want)
		}
		for _, j := range peersOf[i] {
			wantHops[j]++
		}
		for k, id := range want {
			if code := getJSON(t, ts.URL+"/profiles/"+id, nil); code != http.StatusOK {
				t.Fatalf("node %d session %s status %d", i, id, code)
			}
			if k == i {
				continue // held locally
			}
			for _, j := range peersOf[i] {
				wantHops[j]++
				if j == k {
					break
				}
			}
		}
	}
	for i := range hops {
		if got := hops[i].Load(); got != wantHops[i] {
			t.Fatalf("node %d answered %d peer queries, want %d (all: want %v) — peer queries are recursing",
				i, got, wantHops[i], wantHops)
		}
	}
}

// TestFanoutRejectsInvalidIDs: a path that is not a valid session id must
// not be forwarded to peers (it could not name a profile anywhere).
func TestFanoutRejectsInvalidIDs(t *testing.T) {
	ts := httptest.NewServer(NewFanout(fakeStore{}, []string{"127.0.0.1:1"}, 100*time.Millisecond).Handler())
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/profiles/%2e%2e%2fetc", nil); code != http.StatusNotFound {
		t.Fatalf("invalid id status %d, want 404", code)
	}
}
