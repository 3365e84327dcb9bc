package simfarm

import (
	"crypto/sha256"
	"sync"

	"repro/internal/simfarm/store"
)

// memo computes each key's value once; concurrent callers of a key
// wait for that one result. It is the farm's only once-per-key map.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCell[V]
}

type memoCell[V any] struct {
	ready sync.WaitGroup // done once v is set
	v     V
}

// get returns key's value, running compute if no caller has asked for
// key before; first reports whether this call ran it.
func (m *memo[K, V]) get(key K, compute func() V) (v V, first bool) {
	m.mu.Lock()
	c, ok := m.m[key]
	if !ok {
		if m.m == nil {
			m.m = map[K]*memoCell[V]{}
		}
		c = &memoCell[V]{}
		c.ready.Add(1)
		m.m[key] = c
	}
	m.mu.Unlock()
	if ok {
		c.ready.Wait()
		return c.v, false
	}
	defer c.ready.Done()
	c.v = compute()
	return c.v, true
}

func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// tenantKey scopes a content key to a tenant: its store namespace's
// on-disk key, which for the root tenant is the content key itself.
func tenantKey(tenant string, k [sha256.Size]byte) Key { return store.DeriveKey(tenant, k) }
