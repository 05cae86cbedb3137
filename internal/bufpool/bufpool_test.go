package bufpool

import "testing"

func TestGetReusesPutBuffers(t *testing.T) {
	var p Pool
	b := p.Get(64)
	if len(b) != 64 {
		t.Fatalf("Get(64) returned %d bytes", len(b))
	}
	b[0] = 7
	p.Put(b)
	if c := p.Get(32); cap(c) != 64 || c[0] != 7 {
		t.Fatal("Get did not reuse the freed buffer")
	}
	p.Put(make([]byte, 8))
	if c := p.Get(64); len(c) != 64 {
		t.Fatalf("Get(64) over a too-small free buffer returned %d bytes", len(c))
	}
}

func TestGetPutAllocateNothing(t *testing.T) {
	var p Pool
	p.Put(make([]byte, 2048))
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get(2048)) }); n != 0 {
		t.Fatalf("Get+Put made %v allocations, want 0", n)
	}
}

func TestPutRetainsAtMostMaxFree(t *testing.T) {
	var p Pool
	for i := 0; i < 2*maxFree; i++ {
		p.Put(make([]byte, 1))
	}
	if len(p.free) != maxFree {
		t.Fatalf("pool retains %d buffers, want %d", len(p.free), maxFree)
	}
}
