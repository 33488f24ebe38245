package outbox

// Drainer replays queued chunks: it peeks the oldest chunk, attempts the
// upload, and acks on success; on failure it stops and the chunk stays
// queued, so nothing is lost if the process dies mid-drain. The replay
// function should send the chunk's items in one upload carrying the
// chunk's original Nonce (core.Uploader.UploadItems, implemented by
// client.RemoteServer), so a chunk the server already applied is
// deduplicated instead of double-counted — and when both ends speak
// block transfer, a chunk that half-landed before a partition resumes
// from the blocks the server acked instead of resending whole images.
type Drainer struct {
	box *Outbox
	fn  func(c *Chunk) error
}

// NewDrainer wires a drainer to an outbox. fn replays one chunk and
// returns nil when the server acknowledged it.
func NewDrainer(box *Outbox, fn func(c *Chunk) error) *Drainer {
	return &Drainer{box: box, fn: fn}
}

// DrainOnce synchronously replays chunks until the queue is empty or a
// replay fails, returning the number of chunks acked and the first
// error (nil when the queue drained fully).
func (d *Drainer) DrainOnce() (int, error) {
	n := 0
	for {
		c, ok := d.box.Peek()
		if !ok {
			return n, nil
		}
		if err := d.fn(c); err != nil {
			return n, err
		}
		d.box.Ack(c)
		n++
	}
}
