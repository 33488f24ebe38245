package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"bees/internal/blockstore"
	"bees/internal/features"
)

func randomSet(rng *rand.Rand, n int) *features.BinarySet {
	s := &features.BinarySet{Descriptors: make([]features.Descriptor, n)}
	for i := range s.Descriptors {
		for w := 0; w < 4; w++ {
			s.Descriptors[i][w] = rng.Uint64()
		}
	}
	return s
}

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return out
}

func TestQueryRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	req := &QueryRequest{Sets: []*features.BinarySet{
		randomSet(rng, 3), randomSet(rng, 0), randomSet(rng, 7),
	}}
	got := roundTrip(t, req).(*QueryRequest)
	if len(got.Sets) != 3 {
		t.Fatalf("got %d sets", len(got.Sets))
	}
	for i, s := range got.Sets {
		if s.Len() != req.Sets[i].Len() {
			t.Fatalf("set %d length mismatch", i)
		}
		for j := range s.Descriptors {
			if s.Descriptors[j] != req.Sets[i].Descriptors[j] {
				t.Fatalf("descriptor (%d,%d) corrupted", i, j)
			}
		}
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	resp := &QueryResponse{MaxSims: []float64{0, 0.5, 1, 0.0133}}
	got := roundTrip(t, resp).(*QueryResponse)
	if len(got.MaxSims) != 4 {
		t.Fatalf("got %d sims", len(got.MaxSims))
	}
	for i := range got.MaxSims {
		if got.MaxSims[i] != resp.MaxSims[i] {
			t.Fatalf("sim %d corrupted: %v", i, got.MaxSims[i])
		}
	}
}

func TestUploadRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	req := &UploadBatchRequest{Items: []UploadBatchItem{{
		Set:     randomSet(rng, 5),
		GroupID: -42,
		Lat:     48.8566,
		Lon:     2.3522,
		Gain:    0.75,
		Blob:    []byte("compressed image payload"),
	}}}
	got := roundTrip(t, req).(*UploadBatchRequest)
	if len(got.Items) != 1 {
		t.Fatalf("got %d items", len(got.Items))
	}
	it := got.Items[0]
	if it.GroupID != -42 || it.Lat != 48.8566 || it.Lon != 2.3522 || it.Gain != 0.75 {
		t.Fatalf("metadata corrupted: %+v", it)
	}
	if !bytes.Equal(it.Blob, req.Items[0].Blob) {
		t.Fatal("blob corrupted")
	}
	if it.Set.Len() != 5 {
		t.Fatal("set corrupted")
	}
}

func TestUploadRequestNilSet(t *testing.T) {
	req := &UploadBatchRequest{Items: []UploadBatchItem{{GroupID: 1, Blob: []byte{1, 2, 3}}}}
	got := roundTrip(t, req).(*UploadBatchRequest)
	if got.Items[0].Set.Len() != 0 {
		t.Fatal("nil set should decode empty")
	}
	if len(got.Items[0].Blob) != 3 {
		t.Fatal("blob lost")
	}
}

func TestUploadResponseRoundTrip(t *testing.T) {
	got := roundTrip(t, &UploadBatchResponse{IDs: []int64{123456789, -1}}).(*UploadBatchResponse)
	if len(got.IDs) != 2 || got.IDs[0] != 123456789 || got.IDs[1] != -1 {
		t.Fatalf("IDs = %v", got.IDs)
	}
}

// TestRetiredMessageTypesRejected pins the reservation of message
// numbers 3 and 4 (the retired per-image upload frame and its answer):
// they decode as unknown types, whatever their payload, so a peer still
// speaking the old frame is dropped instead of misread.
func TestRetiredMessageTypesRejected(t *testing.T) {
	// The retired request's layout: nonce, group, lat, lon, gain, an
	// empty set, a one-byte blob; the response was a single u64 ID.
	legacy := map[MsgType][]byte{
		3: append(make([]byte, 40+4), 1, 0, 0, 0, 0xAB),
		4: make([]byte, 8),
	}
	for typ, payload := range legacy {
		if msg, err := DecodePayload(typ, payload); err == nil {
			t.Fatalf("type %d decoded as %T", typ, msg)
		}
		frame := append([]byte{byte(len(payload)), 0, 0, 0, byte(typ)}, payload...)
		if _, err := ReadFrame(bytes.NewReader(frame)); err == nil ||
			!strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("type %d frame: err = %v, want unknown message type", typ, err)
		}
	}
}

func TestBusyResponseRoundTrip(t *testing.T) {
	got := roundTrip(t, &BusyResponse{RetryAfterMs: 2500}).(*BusyResponse)
	if got.RetryAfterMs != 2500 {
		t.Fatalf("RetryAfterMs = %d", got.RetryAfterMs)
	}
	// Truncated payloads must be rejected, not misread.
	if _, err := DecodePayload(MsgBusy, []byte{1, 2}); err == nil {
		t.Fatal("truncated busy payload accepted")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	if _, ok := roundTrip(t, &StatsRequest{}).(*StatsRequest); !ok {
		t.Fatal("stats request corrupted")
	}
	got := roundTrip(t, &StatsResponse{Images: 5, BytesReceived: 99}).(*StatsResponse)
	if got.Images != 5 || got.BytesReceived != 99 {
		t.Fatalf("stats corrupted: %+v", got)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	got := roundTrip(t, &ErrorResponse{Message: "boom"}).(*ErrorResponse)
	if got.Message != "boom" {
		t.Fatalf("message = %q", got.Message)
	}
}

func TestWriteFrameRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, "not a message"); err == nil {
		t.Fatal("unknown type should error")
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgQueryRequest)})
	if _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{10, 0, 0, 0, byte(MsgQueryRequest), 1, 2})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated payload should error")
	}
}

func TestReadFrameUnknownType(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0, 0xEE})
	_, err := ReadFrame(&buf)
	if err == nil || !strings.Contains(err.Error(), "unknown message type") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeCorruptSet(t *testing.T) {
	// Announce 10 descriptors but provide none.
	var buf bytes.Buffer
	payload := []byte{1, 0, 0, 0 /* one set */, 10, 0, 0, 0 /* 10 descriptors */}
	header := []byte{byte(len(payload)), 0, 0, 0, byte(MsgQueryRequest)}
	buf.Write(header)
	buf.Write(payload)
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("corrupt set should error")
	}
}

// TestOversizedCountSmallFrame is the regression test for the unbounded
// preallocation: a 4-byte query payload announcing 2³²−1 sets must be
// rejected without the decoder preallocating for the announced count.
func TestOversizedCountSmallFrame(t *testing.T) {
	frame := []byte{4, 0, 0, 0, byte(MsgQueryRequest), 0xff, 0xff, 0xff, 0xff}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadFrame(bytes.NewReader(frame)); err == nil {
			t.Fatal("oversized set count accepted")
		}
	})
	// A handful of small allocations (header, payload, error) are fine; a
	// count-sized preallocation would be ~32 GB and billions of allocs.
	if allocs > 20 {
		t.Fatalf("decoder made %v allocations for a 4-byte payload", allocs)
	}
}

// TestEncodeBlockPutAllocatesOnce pins the block list's single grow: a
// BlockPut payload is sized before it is written, so encoding it is one
// allocation however many blocks it carries.
func TestEncodeBlockPutAllocatesOnce(t *testing.T) {
	msg := &BlockPut{}
	for i := 0; i < 7; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 1000+i*4096)
		msg.Blocks = append(msg.Blocks, Block{Hash: blockstore.HashBlock(data), Data: data})
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := encode(msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("encoding a 7-block BlockPut made %v allocations, want 1", allocs)
	}
}

// TestUploadNonceRoundTrip pins the nonce field's place on the wire.
func TestUploadNonceRoundTrip(t *testing.T) {
	req := &UploadBatchRequest{Nonce: 0xdeadbeefcafe, Items: []UploadBatchItem{{GroupID: 9, Blob: []byte{1}}}}
	got := roundTrip(t, req).(*UploadBatchRequest)
	if got.Nonce != req.Nonce || got.Items[0].GroupID != 9 {
		t.Fatalf("nonce/group corrupted: %+v", got)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, &QueryRequest{Sets: []*features.BinarySet{randomSet(rng, i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		msg, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := msg.(*QueryRequest).Sets[0].Len(); got != i {
			t.Fatalf("frame %d has %d descriptors", i, got)
		}
	}
}

// TestReadFrameNeverPanicsOnRandomBytes feeds random garbage to the
// decoder: errors are fine, panics are not.
func TestReadFrameNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		rng.Read(data)
		// Bound the announced length so ReadFrame does not legitimately
		// wait for gigabytes: cap the first 4 bytes.
		if n >= 4 {
			data[2], data[3] = 0, 0
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %x: %v", data, r)
				}
			}()
			ReadFrame(bytes.NewReader(data))
		}()
	}
}

// TestDecodeTruncatedAtEveryByte checks a valid frame truncated at every
// possible offset errors cleanly.
func TestDecodeTruncatedAtEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	var buf bytes.Buffer
	req := &UploadBatchRequest{Nonce: 5, Items: []UploadBatchItem{{
		Set:     randomSet(rng, 3),
		GroupID: 7,
		Blob:    []byte("payload"),
	}}}
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
	if _, err := ReadFrame(bytes.NewReader(full)); err != nil {
		t.Fatalf("full frame rejected: %v", err)
	}
}
