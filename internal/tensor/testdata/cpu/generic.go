package tensor

// A stand-in for cpu_amd64.go that reports neither AVX2 nor AVX-512, so
// the portable Go kernels run on any CPU. Test builds only, through go
// test -overlay generic.json (see generic.json); never compiled
// otherwise.
var (
	haveAVX2   = false
	haveAVX512 = false
)
