package mpx

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		hits := make([]int32, n)
		ParallelFor(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	ParallelFor(0, 4, func(int) { t.Fatalf("fn called for n=0") })
}

func TestMapOrderAndErrors(t *testing.T) {
	in := []int{1, 2, 3, 4, 5}
	errBad := errors.New("bad")
	out, errs, derr := MapStream(in, 3, func(v int) (int, error) {
		if v == 3 {
			return 0, errBad
		}
		return v * v, nil
	}, nil)
	if derr != nil {
		t.Fatalf("deliver error %v with no deliver hook", derr)
	}
	want := []int{1, 4, 0, 16, 25}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
	if errs[2] != errBad || errs[0] != nil {
		t.Fatalf("errs = %v", errs)
	}
}

func TestMapStreamOrderedDelivery(t *testing.T) {
	inputs := make([]int, 40)
	for i := range inputs {
		inputs[i] = i
	}
	var order []int
	out, errs, derr := MapStream(inputs, 8, func(v int) (int, error) {
		// Stagger work so completions arrive out of order.
		time.Sleep(time.Duration((v*7)%5) * time.Millisecond)
		return v * 2, nil
	}, func(i, r int, err error) error {
		order = append(order, i)
		if r != i*2 || err != nil {
			t.Errorf("deliver(%d) got %d, %v", i, r, err)
		}
		return nil
	})
	if derr != nil {
		t.Fatal(derr)
	}
	if len(order) != len(inputs) {
		t.Fatalf("delivered %d of %d", len(order), len(inputs))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery out of order at %d: %v", i, order)
		}
	}
	for i := range inputs {
		if out[i] != i*2 || errs[i] != nil {
			t.Fatalf("result %d wrong: %d, %v", i, out[i], errs[i])
		}
	}
}

// TestMapStreamStreamsMidBatch proves delivery happens while later elements
// are still in flight: element 3 blocks until element 0 has been delivered,
// which deadlocks any implementation that only delivers after the batch.
func TestMapStreamStreamsMidBatch(t *testing.T) {
	release := make(chan struct{})
	_, _, derr := MapStream([]int{0, 1, 2, 3}, 2, func(v int) (int, error) {
		if v == 3 {
			<-release
		}
		return v, nil
	}, func(i, r int, err error) error {
		if i == 0 {
			close(release)
		}
		return nil
	})
	if derr != nil {
		t.Fatal(derr)
	}
}

func TestMapStreamDeliverErrorStops(t *testing.T) {
	wantErr := errors.New("stop")
	var delivered []int
	out, _, derr := MapStream([]int{1, 2, 3, 4}, 2, func(v int) (int, error) {
		return v * 10, nil
	}, func(i, r int, err error) error {
		delivered = append(delivered, i)
		if i == 1 {
			return wantErr
		}
		return nil
	})
	if derr != wantErr {
		t.Fatalf("derr = %v", derr)
	}
	if len(delivered) != 2 {
		t.Fatalf("deliveries after error: %v", delivered)
	}
	// Computation still completed for every element.
	for i, v := range out {
		if v != (i+1)*10 {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestMapStreamSerialAndEmpty(t *testing.T) {
	if out, _, err := MapStream(nil, 4, func(v int) (int, error) { return v, nil }, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v %v", out, err)
	}
	var order []int
	_, _, err := MapStream([]int{5, 6}, 1, func(v int) (int, error) { return v, nil },
		func(i, r int, err error) error { order = append(order, i); return nil })
	if err != nil || len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("serial delivery: %v %v", order, err)
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	g := NewGate(2)
	var cur, peak atomic.Int64
	ParallelFor(16, 8, func(i int) {
		g.Acquire()
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		g.Release()
	})
	if p := peak.Load(); p > 2 {
		t.Fatalf("gate admitted %d concurrent holders, limit 2", p)
	}
	// A gate built with n < 1 still admits one holder (and releases).
	g1 := NewGate(0)
	g1.Acquire()
	g1.Release()
}
