package server

import (
	"context"
	"testing"
	"time"
)

// TestShardAskAfterRetire: ask runs its closure on a live shard and
// reports true; on a retired shard it reports false without running it
// and without waiting, however many times it is asked.
func TestShardAskAfterRetire(t *testing.T) {
	srv := New(Config{Shards: 2})
	ran := 0
	for _, sh := range srv.shards {
		if !sh.ask(func(*shard) { ran++ }) {
			t.Fatalf("ask on live shard %d reported retired", sh.idx)
		}
	}
	if ran != 2 {
		t.Fatalf("closures run on live shards: %d, want 2", ran)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, sh := range srv.shards {
		for i := 0; i < 512; i++ {
			if sh.ask(func(*shard) { ran++ }) {
				t.Fatalf("ask %d on retired shard %d reported it ran", i, sh.idx)
			}
		}
	}
	if ran != 2 {
		t.Errorf("%d closures ran on retired shards", ran-2)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("asking retired shards took %v", d)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
