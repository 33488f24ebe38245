package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"bees/internal/features"
	"bees/internal/telemetry"
	"bees/internal/wire"
)

// stallFrame writes only the header of a query frame on a fresh
// connection, leaving its announced payload in flight.
func stallFrame(t *testing.T, addr string) (net.Conn, []byte) {
	t.Helper()
	header, payload := splitFrame(t, &wire.QueryRequest{Sets: []*features.BinarySet{{
		Descriptors: make([]features.Descriptor, 4),
	}}})
	conn := dialRaw(t, addr)
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}
	return conn, payload
}

// waitInflight polls the admission controller until the stalled frames
// are charged, so the gain-ranked probes below see a deterministic
// occupancy.
func waitInflight(t *testing.T, tcp *TCPServer, frames int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if f, _ := tcp.adm.Inflight(); f == frames {
			return
		}
		if time.Now().After(deadline) {
			f, b := tcp.adm.Inflight()
			t.Fatalf("inflight never reached %d frames (at %d frames, %d bytes)", frames, f, b)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestUtilityAdmissionShedsLowGainFirst drives the utility policy over
// real TCP: with the server between its low- and high-water marks, a
// low-gain upload is answered Busy while an unranked and a high-gain
// upload are admitted; at the high-water mark even the best gain sheds,
// so the policy never exceeds FIFO's byte budget.
func TestUtilityAdmissionShedsLowGainFirst(t *testing.T) {
	tel := telemetry.NewRegistry()
	srv, tcp, addr := listenTCP(t, TCPConfig{
		AdmitPolicy:       AdmitUtility,
		AdmitLowWater:     0.25,
		MaxInflightFrames: 4,
		IdleTimeout:       5 * time.Second,
		Telemetry:         tel,
	})

	// Idle server: every probe's blocks are staged (block puts carry no
	// gain), then uploads with gains 5 and 6 are admitted and seed the
	// recent-gain window.
	connA := dialRaw(t, addr)
	gains := []float64{5, 6, 1, 0, 9, 99}
	items, _ := stagedManifestItems(t, connA, 3, 3, 3, 6, 4, 4)
	for i := range items {
		items[i].Gain = gains[i]
	}
	for i := range gains[:2] {
		resp := request(t, connA, uploadOne(uint64(100+i), items[i]))
		if _, ok := resp.(*wire.ManifestCommitResponse); !ok {
			t.Fatalf("idle-server upload %d got %T", i, resp)
		}
	}

	// Three stalled queries put the server at 3/4 occupancy — between
	// the marks, where admission is gain-ranked.
	type stalled struct {
		conn    net.Conn
		payload []byte
	}
	var stalls []stalled
	for i := 0; i < 3; i++ {
		conn, payload := stallFrame(t, addr)
		stalls = append(stalls, stalled{conn, payload})
	}
	waitInflight(t, tcp, 3)

	connB := dialRaw(t, addr)
	// Low gain sheds: the window {5, 6, 1} puts the threshold at 5.
	if resp := request(t, connB, uploadOne(200, items[2])); func() bool { _, ok := resp.(*wire.BusyResponse); return !ok }() {
		t.Fatalf("low-gain upload got %T, want BusyResponse", resp)
	}
	// Unranked (gain 0) falls back to the FIFO rule: 3 < 4 admits, so a
	// fleet that never stamps gains is unaffected.
	if resp := request(t, connB, uploadOne(201, items[3])); func() bool { _, ok := resp.(*wire.ManifestCommitResponse); return !ok }() {
		t.Fatalf("unranked upload got %T, want ManifestCommitResponse", resp)
	}
	// High gain clears the threshold and is admitted.
	if resp := request(t, connB, uploadOne(202, items[4])); func() bool { _, ok := resp.(*wire.ManifestCommitResponse); return !ok }() {
		t.Fatalf("high-gain upload got %T, want ManifestCommitResponse", resp)
	}

	// A fourth stalled frame reaches the high-water mark: now nothing is
	// admitted, whatever its gain — the byte budget stays strict.
	conn4, payload4 := stallFrame(t, addr)
	stalls = append(stalls, stalled{conn4, payload4})
	waitInflight(t, tcp, 4)
	if resp := request(t, connB, uploadOne(203, items[5])); func() bool { _, ok := resp.(*wire.BusyResponse); return !ok }() {
		t.Fatalf("over-high-water upload got %T, want BusyResponse", resp)
	}

	// The stalled (admitted) queries still complete.
	for i, s := range stalls {
		if _, err := s.conn.Write(s.payload); err != nil {
			t.Fatalf("stall %d complete: %v", i, err)
		}
		s.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := wire.ReadFrame(s.conn); err != nil {
			t.Fatalf("stalled query %d did not complete: %v", i, err)
		}
	}

	if got := srv.Stats().Images; got != 4 {
		t.Fatalf("server holds %d images, want 4 (gains 5, 6, unranked, 9)", got)
	}
	snap := tel.Snapshot()
	if snap.Counters["server.admit.shed_utility"] < 1 {
		t.Fatalf("server.admit.shed_utility = %d, want >= 1", snap.Counters["server.admit.shed_utility"])
	}
	if snap.Counters["server.admit.shed_hwm"] < 1 {
		t.Fatalf("server.admit.shed_hwm = %d, want >= 1", snap.Counters["server.admit.shed_hwm"])
	}
}

// TestUtilityAdmissionConcurrentClients hammers a tiny utility-policy
// server from many concurrent clients so shedding and admission race on
// the controller — under tier2's race detector this proves the
// gain-ranked path is safe — and checks accounting stayed exact: the
// server holds precisely the uploads that were answered with an ID.
func TestUtilityAdmissionConcurrentClients(t *testing.T) {
	srv, _, addr := listenTCP(t, TCPConfig{
		AdmitPolicy:       AdmitUtility,
		AdmitLowWater:     0.3,
		MaxInflightFrames: 2,
		IdleTimeout:       5 * time.Second,
		Telemetry:         telemetry.NewRegistry(),
	})
	const clients, perClient = 24, 8
	// Every upload's block is staged up front, on the idle server, so
	// the race below is between commits alone.
	sizes := make([]int, clients*perClient)
	for i := range sizes {
		sizes[i] = 5 + i%7
	}
	items, _ := stagedManifestItems(t, dialRaw(t, addr), sizes...)
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, shed := 0, 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer conn.Close()
			for i := 0; i < perClient; i++ {
				it := items[c*perClient+i]
				it.GroupID = int64(c)
				it.Gain = float64(1 + (c*7+i*13)%20)
				req := uploadOne(uint64(1+c*perClient+i), it)
				if err := wire.WriteFrame(conn, req); err != nil {
					t.Errorf("client %d write: %v", c, err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				resp, err := wire.ReadFrame(conn)
				if err != nil {
					t.Errorf("client %d read: %v", c, err)
					return
				}
				mu.Lock()
				switch resp.(type) {
				case *wire.ManifestCommitResponse:
					accepted++
				case *wire.BusyResponse:
					shed++
				default:
					t.Errorf("client %d got %T", c, resp)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if accepted+shed != clients*perClient {
		t.Fatalf("accounted %d responses, want %d", accepted+shed, clients*perClient)
	}
	if accepted == 0 {
		t.Fatal("nothing admitted")
	}
	if got := srv.Stats().Images; got != accepted {
		t.Fatalf("server holds %d images, but %d uploads were acknowledged", got, accepted)
	}
}
