package server

import (
	"sync"
	"testing"

	"bees/internal/telemetry"
)

// Inflight reports the currently charged frames and bytes.
func (a *Admission) Inflight() (frames int64, bytes int64) {
	return a.frames.Load(), a.bytes.Load()
}

func TestParseAdmitPolicy(t *testing.T) {
	for s, want := range map[string]AdmitPolicy{
		"": AdmitFIFO, "fifo": AdmitFIFO, "utility": AdmitUtility,
	} {
		got, err := ParseAdmitPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseAdmitPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseAdmitPolicy("lifo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestAdmissionFIFO(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxFrames: 2, MaxBytes: 100})
	if a.Policy() != AdmitFIFO {
		t.Fatalf("default policy = %q", a.Policy())
	}
	// Lone frame on an idle controller always gets in, even if huge.
	t1 := a.Charge(1 << 30)
	if !a.Admit(t1, 0) {
		t.Fatal("first frame shed itself")
	}
	// Byte mark is now far exceeded: the next frame sheds.
	t2 := a.Charge(1)
	if a.Admit(t2, 0) {
		t.Fatal("admitted past the byte high-water mark")
	}
	t2.Release()
	t1.Release()
	if f, b := a.Inflight(); f != 0 || b != 0 {
		t.Fatalf("inflight after release = %d frames, %d bytes", f, b)
	}
	// Frame mark: two in flight (limit 2) sheds the third regardless of
	// bytes; FIFO ignores gains entirely.
	t1, t2 = a.Charge(1), a.Charge(1)
	a.Admit(t1, 0)
	a.Admit(t2, 0)
	t3 := a.Charge(1)
	if a.Admit(t3, 99) {
		t.Fatal("FIFO admitted past the frame mark despite high gain")
	}
	t3.Release()
	t2.Release()
	t1.Release()
}

func TestAdmissionTicketDoubleReleasePanics(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	tk := a.Charge(1)
	tk.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	tk.Release()
}

// TestAdmissionUtilityEarlyDrop pins the utility policy's core behavior:
// below the low-water mark everything is admitted; between low and high
// water, low-gain uploads shed while high-gain ones are admitted; over
// the high-water mark everything sheds, same as FIFO.
func TestAdmissionUtilityEarlyDrop(t *testing.T) {
	tel := telemetry.NewRegistry()
	a := NewAdmission(AdmissionConfig{
		Policy:    AdmitUtility,
		MaxFrames: 10,
		MaxBytes:  1 << 40, // frames are the binding mark here
		LowWater:  0.5,
		Telemetry: tel,
	})
	// Seed the gain window with a spread of offered gains while idle.
	var held []*Ticket
	for i := 1; i <= 4; i++ {
		tk := a.Charge(1)
		if !a.Admit(tk, float64(i)) { // occupancy ≤ 0.4 ≤ low water
			t.Fatalf("under low water shed a gain-%d upload", i)
		}
		held = append(held, tk)
	}
	// Occupancy now 0.4; push to 0.8 with neutral (unranked) frames.
	for i := 0; i < 4; i++ {
		tk := a.Charge(1)
		if !a.Admit(tk, 0) {
			t.Fatal("unranked frame shed under the high-water mark")
		}
		held = append(held, tk)
	}
	// At occupancy 0.8 the threshold quantile is (0.8-0.5)/0.5 = 0.6 of
	// the window {1,2,3,4} → τ = 3: gain 1 sheds, gain 4 passes.
	low := a.Charge(1)
	if a.Admit(low, 1) {
		t.Fatal("low-gain upload admitted at high occupancy")
	}
	low.Release()
	high := a.Charge(1)
	if !a.Admit(high, 4) {
		t.Fatal("high-gain upload shed below the high-water mark")
	}
	held = append(held, high)
	// Fill to the mark: 10 in flight. Everything sheds now, even the
	// best gain seen — the byte budget stays strict.
	filler := a.Charge(1)
	a.Admit(filler, 0)
	held = append(held, filler)
	over := a.Charge(1)
	if a.Admit(over, 1000) {
		t.Fatal("admitted over the high-water mark")
	}
	over.Release()
	for _, tk := range held {
		tk.Release()
	}
	snap := tel.Snapshot()
	if snap.Counters["server.admit.shed_utility"] == 0 {
		t.Fatal("no utility shed counted")
	}
	if snap.Counters["server.admit.shed_hwm"] == 0 {
		t.Fatal("no high-water shed counted")
	}
	if snap.Counters["server.admit.admitted"] == 0 {
		t.Fatal("no admissions counted")
	}
}

// TestAdmissionUtilityUniformGainsAdmit verifies a client whose gains
// are all equal is not starved by its own threshold: ties admit.
func TestAdmissionUtilityUniformGainsAdmit(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Policy: AdmitUtility, MaxFrames: 10, LowWater: 0.5})
	var held []*Ticket
	for i := 0; i < 9; i++ {
		tk := a.Charge(1)
		if !a.Admit(tk, 2.5) {
			t.Fatalf("uniform-gain upload %d shed under the high-water mark", i)
		}
		held = append(held, tk)
	}
	for _, tk := range held {
		tk.Release()
	}
}

// TestAdmissionConcurrent hammers the controller from many goroutines:
// the race detector (tier2) proves charge/admit/release are safe to call
// from concurrent connection handlers, and the final inflight accounting
// must return to zero.
func TestAdmissionConcurrent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{
		Policy:    AdmitUtility,
		MaxFrames: 16,
		MaxBytes:  1 << 20,
		Telemetry: telemetry.NewRegistry(),
	})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tk := a.Charge(int64(1 + (g+i)%4096))
				a.Admit(tk, float64((g*31+i)%17))
				tk.Release()
			}
		}(g)
	}
	wg.Wait()
	if f, b := a.Inflight(); f != 0 || b != 0 {
		t.Fatalf("inflight did not drain: %d frames, %d bytes", f, b)
	}
}
