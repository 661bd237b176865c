package tensor

// A stand-in for cpu_amd64.go that reports no AVX-512, so the AVX2
// kernel runs on any AVX2 CPU. Test builds only, through go test
// -overlay avx2.json (see avx2.json); never compiled otherwise.
var (
	haveAVX2   = cpuHasAVX2()
	haveAVX512 = false
)
