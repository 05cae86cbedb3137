// Package bufpool is a free list of scratch byte buffers.
//
// A sync.Pool of []byte boxes a new slice header on every Put (the
// interface conversion allocates), so a pooled scratch page still costs
// one allocation per use. Pool keeps the slices by value in a small
// mutex-guarded stack instead: Get and Put allocate nothing once a buffer
// is free. Ownership is plain: a buffer taken with Get may be returned
// with Put or simply kept (the store hands verified differential-page
// images to its cache that way), and the pool never learns the
// difference.
package bufpool

import "sync"

// maxFree bounds how many free buffers a Pool retains; Put drops the
// rest, so a burst of concurrent borrowers does not pin memory forever.
const maxFree = 16

// Pool is a free list of byte buffers. The zero value is ready to use and
// safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free [][]byte
}

// Get returns a buffer of length n, reusing the most recently freed one
// when its capacity suffices. Its content is unspecified.
func (p *Pool) Get(n int) []byte {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		p.mu.Unlock()
		if cap(b) >= n {
			return b[:n]
		}
		return make([]byte, n)
	}
	p.mu.Unlock()
	return make([]byte, n)
}

// Put returns b to the pool. The caller must not use b afterwards.
func (p *Pool) Put(b []byte) {
	p.mu.Lock()
	if len(p.free) < maxFree {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}
