package modelcache_test

import (
	"fmt"

	"anole/internal/modelcache"
)

// A device with room for two compressed models streams requests; the LFU
// cache keeps the frequently used model resident.
func ExampleSharded() {
	cache := modelcache.MustNewSharded(2, modelcache.LFU, 1)
	for _, model := range []string{"M_1", "M_1", "M_2", "M_1", "M_3"} {
		hit, evicted, err := cache.Request(model, 1)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s hit=%v evicted=%v\n", model, hit, evicted)
	}
	fmt.Printf("miss rate %.2f, resident %v\n", cache.MissRate(), cache.Keys())
	// Output:
	// M_1 hit=false evicted=[]
	// M_1 hit=true evicted=[]
	// M_2 hit=false evicted=[]
	// M_1 hit=true evicted=[]
	// M_3 hit=false evicted=[M_2]
	// miss rate 0.60, resident [M_1 M_3]
}
