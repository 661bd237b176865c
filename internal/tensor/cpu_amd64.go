package tensor

// The kernels this CPU runs, checked once at start-up: dense runs the
// AVX-512 kernel where haveAVX512 holds, else the AVX2 one where
// haveAVX2 holds (which also picks AdamStep.Update's assembly loop),
// else the portable Go loops. This file holds only the choice, so a
// test build can replace it (go test -overlay) to pin a slower path on
// a faster CPU.
var (
	haveAVX2   = cpuHasAVX2()
	haveAVX512 = haveAVX2 && cpuHasAVX512()
)
