package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardPages hands out copies of operands that each end where a page
// the process may not touch begins, so a kernel that loads past one
// faults (callNoFault turns the fault into a test failure); free unmaps
// them. A loop that makes many operands frees them as it goes, which
// keeps the process under the kernel's limit on mappings.
type guardPages struct{ maps [][]byte }

func (g *guardPages) copy(t *testing.T, data []float64) []float64 {
	t.Helper()
	if len(data) == 0 {
		return nil
	}
	page := syscall.Getpagesize()
	size := (len(data)*8+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	g.maps = append(g.maps, mem)
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	body := mem[size-page-len(data)*8 : size-page]
	out := unsafe.Slice((*float64)(unsafe.Pointer(&body[0])), len(data))
	copy(out, data)
	return out
}

func (g *guardPages) free() {
	for _, m := range g.maps {
		syscall.Munmap(m)
	}
	g.maps = g.maps[:0]
}
