package ir

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(s, i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, the caller's among them. Each goroutine owns one zero S
// that fn may keep scratch state in across the items it is handed;
// items are handed out in index order. A panic in fn re-panics on the
// caller's goroutine once every worker has stopped. The front end and
// fingerprinting share it.
func ForEach[S any](n int, fn func(s *S, i int)) {
	var next atomic.Int64
	var mu sync.Mutex
	var panicked any
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				panicked = r
				mu.Unlock()
			}
		}()
		var s S
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(&s, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
