package nfs

import (
	"strings"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/proto/retry"
)

// TestBackoffBudgetExhausts: with the jittered-backoff policy installed,
// an RPC into a dead port stops after the retry budget is spent (not the
// classic Retries count) and reports the budget error.
func TestBackoffBudgetExhausts(t *testing.T) {
	srv := NewServer()
	world(t, srv, 1, func(p *aegis.Process, c *Client) {
		c.Port = 2051 // nobody home
		bo := retry.New(retry.Policy{BaseUs: 2000, CapUs: 16000, Budget: 3}, 7, 0)
		c.Backoff = &bo
		_, err := c.Lookup(p, RootHandle, "x")
		if err == nil {
			t.Error("lookup against a dead port succeeded")
			return
		}
		if !strings.Contains(err.Error(), "retry budget") {
			t.Errorf("error = %v, want retry budget exhausted", err)
		}
		if c.Resent != 2 {
			t.Errorf("resent = %d, want 2 (budget 3 = 1 try + 2 retries)", c.Resent)
		}
	})
}

// TestBackoffBudgetRefillsPerRPC: the budget is per RPC — after a failed
// call, the next call against a live server proceeds normally.
func TestBackoffBudgetRefillsPerRPC(t *testing.T) {
	srv := NewServer()
	srv.AddFile("f", []byte("x"))
	world(t, srv, 1, func(p *aegis.Process, c *Client) {
		bo := retry.New(retry.Policy{BaseUs: 2000, CapUs: 16000, Budget: 2}, 7, 0)
		c.Backoff = &bo
		good := c.Port
		c.Port = 2051
		if _, err := c.Lookup(p, RootHandle, "f"); err == nil {
			t.Error("dead-port lookup succeeded")
			return
		}
		c.Port = good
		if _, err := c.Lookup(p, RootHandle, "f"); err != nil {
			t.Errorf("post-failure lookup: %v", err)
		}
	})
}
