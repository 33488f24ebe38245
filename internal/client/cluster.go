package client

import (
	"fmt"

	"bees/internal/wire"
)

// Cluster RPCs: the client side of the sharded-cluster protocol
// (internal/wire/cluster.go). The cluster router (internal/cluster)
// holds one Client per node and speaks these; each call inherits the
// client's full retry/breaker/busy-hold machinery, so a router fan-out
// rides the same transport hardening as a phone's upload.

// ShardRoute sends one shard frame — any mix of block query, block
// staging, and manifest commit — and returns the shard's answer.
func (c *Client) ShardRoute(m *wire.ShardRoute) (*wire.ShardRouteResponse, error) {
	resp, err := c.roundTrip(m)
	if err != nil {
		return nil, err
	}
	rr, ok := resp.(*wire.ShardRouteResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected response %T", resp)
	}
	if len(rr.Have) != len(m.Query) {
		return nil, fmt.Errorf("client: got %d have bits for %d queried hashes", len(rr.Have), len(m.Query))
	}
	if len(rr.IDs) != len(m.Items) {
		return nil, fmt.Errorf("client: got %d ids for %d committed items", len(rr.IDs), len(m.Items))
	}
	return rr, nil
}

// ShardQuery runs the CBRD candidate query for the given sets against
// the named shards on the connected node.
func (c *Client) ShardQuery(m *wire.ShardQuery) (*wire.ShardQueryResponse, error) {
	resp, err := c.roundTrip(m)
	if err != nil {
		return nil, err
	}
	qr, ok := resp.(*wire.ShardQueryResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected response %T", resp)
	}
	if len(qr.Stats) != len(m.Shards) {
		return nil, fmt.Errorf("client: got %d shard stats for %d shards", len(qr.Stats), len(m.Shards))
	}
	if len(qr.PerSet) != len(m.Sets) {
		return nil, fmt.Errorf("client: got %d candidate lists for %d sets", len(qr.PerSet), len(m.Sets))
	}
	return qr, nil
}

// ShardSync pulls one shard's full replica state from the connected
// node: the deterministic snapshot stream plus the nonce-dedup window.
func (c *Client) ShardSync(shard uint32) (*wire.ShardSyncResponse, error) {
	resp, err := c.roundTrip(&wire.ShardSync{Shard: shard})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*wire.ShardSyncResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected response %T", resp)
	}
	return sr, nil
}
