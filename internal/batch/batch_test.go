package batch

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoRunner delivers each lane its own payload, recording batch sizes.
func echoRunner(mu *sync.Mutex, sizes *[]int) Runner {
	return func(key string, lanes []*Lane) {
		mu.Lock()
		*sizes = append(*sizes, len(lanes))
		mu.Unlock()
		for _, l := range lanes {
			l.Deliver(l.Payload, nil)
		}
	}
}

func TestFullGroupRunsWithoutWindowWait(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	// A very long window: the test only passes quickly if a full group
	// detaches early.
	c := New(time.Hour, 4, echoRunner(&mu, &sizes))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Run(context.Background(), "k", i)
			if err != nil {
				t.Errorf("lane %d: %v", i, err)
			}
			if res != i {
				t.Errorf("lane %d got %v", i, res)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("full group did not detach before the window")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 4 {
		t.Fatalf("batch sizes = %v, want one batch of 4", sizes)
	}
}

func TestWindowGathersPartialGroup(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	c := New(50*time.Millisecond, 32, echoRunner(&mu, &sizes))

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Run(context.Background(), "k", i); err != nil {
				t.Errorf("lane %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 3 {
		t.Fatalf("delivered %d lanes across %v, want 3", total, sizes)
	}
}

func TestDistinctKeysDoNotFuse(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	c := New(50*time.Millisecond, 32, echoRunner(&mu, &sizes))

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i))
			if _, err := c.Run(context.Background(), key, i); err != nil {
				t.Errorf("lane %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 1 {
		t.Fatalf("batch sizes = %v, want two batches of 1", sizes)
	}
}

func TestZeroWindowMeansSolo(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	c := New(0, 32, echoRunner(&mu, &sizes))
	for i := 0; i < 3; i++ {
		if _, err := c.Run(context.Background(), "k", i); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 3 {
		t.Fatalf("batch sizes = %v, want three batches of 1", sizes)
	}
}

func TestPanickingRunnerDeliversError(t *testing.T) {
	c := New(0, 1, func(key string, lanes []*Lane) { panic("boom") })
	_, err := c.Run(context.Background(), "k", nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want runner panic", err)
	}
}

func TestForgetfulRunnerDeliversError(t *testing.T) {
	c := New(0, 1, func(key string, lanes []*Lane) {})
	_, err := c.Run(context.Background(), "k", nil)
	if err == nil || !strings.Contains(err.Error(), "without delivering") {
		t.Fatalf("err = %v, want delivery backstop", err)
	}
}

// A follower whose context is cancelled while the fused run executes
// stops waiting immediately; the batch itself keeps running (the
// leader executes the runner on its own goroutine).
func TestCancelledFollowerReturnsEarly(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	c := New(time.Hour, 2, func(key string, lanes []*Lane) {
		close(started)
		<-block
		for _, l := range lanes {
			l.Deliver(nil, nil)
		}
	})
	go c.Run(context.Background(), "k", nil) // leader
	time.Sleep(20 * time.Millisecond)        // let the leader register
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, "k", nil) // follower fills the group
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not return")
	}
	close(block)
}
