package server

import (
	"fmt"
	"testing"
	"time"
)

func qjob(priority int) *Job {
	return &Job{Req: JobRequest{Priority: priority}}
}

func TestQueuePriorityThenFIFO(t *testing.T) {
	q := newAdmitQueue(16)
	// Two priority classes interleaved; within a class, arrival order.
	order := []int{0, 5, 0, 5, 0}
	var jobs []*Job
	for i, p := range order {
		j := qjob(p)
		j.ID = fmt.Sprintf("j-%d", i)
		if !q.Push(j) {
			t.Fatalf("push %d rejected", i)
		}
		jobs = append(jobs, j)
	}
	want := []string{"j-1", "j-3", "j-0", "j-2", "j-4"}
	for i, w := range want {
		got := q.Pop()
		if got.ID != w {
			t.Fatalf("pop %d = %s, want %s", i, got.ID, w)
		}
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("queue not empty: %d", n)
	}
}

func TestQueueBound(t *testing.T) {
	q := newAdmitQueue(2)
	if !q.Push(qjob(0)) || !q.Push(qjob(0)) {
		t.Fatal("pushes under the bound rejected")
	}
	if q.Push(qjob(0)) {
		t.Fatal("push over the bound accepted")
	}
	q.Pop()
	if !q.Push(qjob(0)) {
		t.Fatal("push after pop rejected")
	}
}

// TestQueueRemove: Remove takes a waiting job out wherever it sits in the
// heap, frees its place under the bound, keeps the order of the rest, and
// ignores a job that is not waiting.
func TestQueueRemove(t *testing.T) {
	q := newAdmitQueue(4)
	var jobs []*Job
	for i, p := range []int{0, 5, 0, 5} {
		j := qjob(p)
		j.ID = fmt.Sprintf("j-%d", i)
		q.Push(j)
		jobs = append(jobs, j)
	}
	q.Remove(jobs[3])
	q.Remove(jobs[3])
	if q.Len() != 3 || !q.Push(qjob(0)) {
		t.Fatalf("Remove did not free a place: len %d", q.Len())
	}
	popped := q.Pop()
	q.Remove(popped)
	q.Remove(qjob(0))
	want := []string{"j-0", "j-2", ""}
	if popped.ID != "j-1" {
		t.Fatalf("first pop = %s, want j-1", popped.ID)
	}
	for i, w := range want {
		if got := q.Pop(); got.ID != w {
			t.Fatalf("pop %d = %q, want %q", i, got.ID, w)
		}
	}
}

func TestQueueCloseDrainsBacklog(t *testing.T) {
	q := newAdmitQueue(4)
	q.Push(qjob(1))
	q.Push(qjob(2))
	q.Close()
	if q.Push(qjob(3)) {
		t.Fatal("push after close accepted")
	}
	// The backlog must still come out, highest priority first.
	if j := q.Pop(); j == nil || j.Req.Priority != 2 {
		t.Fatalf("pop after close = %+v, want priority 2", j)
	}
	if j := q.Pop(); j == nil || j.Req.Priority != 1 {
		t.Fatalf("pop after close = %+v, want priority 1", j)
	}
	if j := q.Pop(); j != nil {
		t.Fatalf("pop on drained closed queue = %+v, want nil", j)
	}
}

func TestQueueCloseWakesBlockedPop(t *testing.T) {
	q := newAdmitQueue(4)
	done := make(chan *Job, 1)
	go func() { done <- q.Pop() }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case j := <-done:
		if j != nil {
			t.Fatalf("pop = %+v, want nil", j)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop did not wake on Close")
	}
}
