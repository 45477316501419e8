package shadow

import (
	"sync"
	"testing"
)

// TestTemplateTableConcurrentReadersAndWriters: goroutines that keep
// overwriting each other's slots in a tiny table never see an entry whose
// codes belong to another key, and the table never holds more entries
// than slots.
func TestTemplateTableConcurrentReadersAndWriters(t *testing.T) {
	tab := NewTemplateTable[uint64](4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64((i*7 + g*13) % 64)
				if e := tab.Load(k); e != nil && e.Key == k {
					if e.Codes[0] != uint8(k) {
						t.Errorf("key %d read codes of key %d", k, e.Codes[0])
						return
					}
					continue
				}
				tab.Store(k, k, []uint8{uint8(k)})
			}
		}(g)
	}
	wg.Wait()
	if n := tab.Len(); n > 4 {
		t.Fatalf("%d entries in a 4-slot table", n)
	}
}
