package client

import (
	"fmt"

	"bees/internal/blockstore"
	"bees/internal/wire"
)

// Block-transfer RPCs: the client side of the delta-upload protocol
// (see internal/wire/blocks.go for the frame flow), the one way images
// reach a server.

// NegotiateBlocks performs the Hello feature exchange and reports
// whether the server advertises block transfer. Uploads never call it —
// every server speaks block transfer — but it is a cheap round trip that
// dials the connection and proves the server is a BEES endpoint.
func (c *Client) NegotiateBlocks() (bool, error) {
	resp, err := c.roundTrip(&wire.Hello{
		Version:  wire.ProtocolVersion,
		Features: wire.FeatureBlocks,
	})
	if err != nil {
		return false, err
	}
	h, ok := resp.(*wire.Hello)
	if !ok {
		return false, fmt.Errorf("client: unexpected response %T", resp)
	}
	return h.Features&wire.FeatureBlocks != 0, nil
}

// queryBlocks asks which of the given blocks the server already holds,
// one bool per hash in order.
func (c *Client) queryBlocks(hashes []blockstore.Hash) ([]bool, error) {
	resp, err := c.roundTrip(&wire.BlockQuery{Hashes: hashes})
	if err != nil {
		return nil, err
	}
	qr, ok := resp.(*wire.BlockQueryResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected response %T", resp)
	}
	if len(qr.Have) != len(hashes) {
		return nil, fmt.Errorf("client: got %d block bits for %d hashes", len(qr.Have), len(hashes))
	}
	c.blocksQueried.Add(int64(len(hashes)))
	return qr.Have, nil
}

// putBlocks uploads blocks for staging on the server. Blocks are
// idempotent by content address, so a retried frame costs bandwidth but
// can never corrupt state — the server just reports them as duplicates.
func (c *Client) putBlocks(blocks []wire.Block) error {
	resp, err := c.roundTrip(&wire.BlockPut{Blocks: blocks})
	if err != nil {
		return err
	}
	if _, ok := resp.(*wire.BlockPutResponse); !ok {
		return fmt.Errorf("client: unexpected response %T", resp)
	}
	return nil
}

// commitManifests finalizes a delta upload under the caller's nonce and
// returns the server-assigned IDs in item order. Re-sending a chunk under
// its original nonce makes the replay idempotent — if the chunk landed
// before a partition ate the response, the server's dedup window returns
// the original IDs instead of storing the images twice.
func (c *Client) commitManifests(nonce uint64, items []wire.ManifestItem) ([]int64, error) {
	resp, err := c.roundTrip(&wire.ManifestCommit{Nonce: nonce, Items: items})
	if err != nil {
		return nil, err
	}
	cr, ok := resp.(*wire.ManifestCommitResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected response %T", resp)
	}
	if len(cr.IDs) != len(items) {
		return nil, fmt.Errorf("client: got %d ids for %d committed items", len(cr.IDs), len(items))
	}
	return cr.IDs, nil
}
