package server

import (
	"container/heap"
	"sync"
)

// admitQueue is the bounded admission queue: accepted jobs wait here until
// an idle executor slot pops them, ordered by (priority descending, arrival
// ascending) — strict FIFO within a priority class. Push fails fast when
// the bound is reached (the HTTP layer turns that into 429 + Retry-After);
// Pop blocks until a job arrives or the queue closes. After Close, Pop
// keeps draining the backlog before reporting emptiness.
type admitQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   jobHeap
	bound  int
	seq    uint64
	closed bool
}

func newAdmitQueue(bound int) *admitQueue {
	q := &admitQueue{bound: bound}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits j, reporting false when the queue is full or closed.
func (q *admitQueue) Push(j *Job) bool { return q.push(j, false) }

// Requeue puts back a job that was admitted earlier and suspended since.
// It ignores the bound: refusing it would strand an accepted job.
func (q *admitQueue) Requeue(j *Job) { q.push(j, true) }

func (q *admitQueue) push(j *Job, admitted bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !admitted && (q.closed || len(q.heap) >= q.bound) {
		return false
	}
	j.seq = q.seq
	q.seq++
	heap.Push(&q.heap, j)
	q.cond.Signal()
	return true
}

// Pop removes the highest-priority job, blocking while the queue is open
// and empty. It returns nil only once the queue is closed and drained.
func (q *admitQueue) Pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.heap) == 0 {
		return nil
	}
	return heap.Pop(&q.heap).(*Job)
}

// Remove takes j out of the queue if it is waiting there (a canceled job),
// freeing its place under the bound.
func (q *admitQueue) Remove(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i := j.qidx; i >= 0 && i < len(q.heap) && q.heap[i] == j {
		heap.Remove(&q.heap, i)
	}
}

// Len returns the number of waiting jobs.
func (q *admitQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// Close stops admission and wakes blocked Pops so they can drain and exit.
func (q *admitQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// jobHeap orders jobs by priority (higher first), then admission sequence
// (earlier first). Each job records its index, so Remove is O(log n).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Req.Priority != h[j].Req.Priority {
		return h[i].Req.Priority > h[j].Req.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].qidx, h[j].qidx = i, j
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.qidx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.qidx = -1
	*h = old[:n-1]
	return j
}
