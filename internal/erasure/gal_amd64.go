package erasure

// useAVX2 selects the kernel's AVX2 body for kernels compiled from now
// on. It is set once, at init, from what the CPU reports; only tests
// clear it, to run the table body on the same machine.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5)
// and the OS saves the YMM registers across context switches (OSXSAVE,
// then XCR0's SSE and AVX state bits).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// mulPairAVX2 is the AVX2 body of one pass: for each 32-byte block of
// d0, it overwrites d0 and d1 with Σ_j of column j's products for rows r
// and r+1 over in[j], taken from tabs[j]. len(tabs) = len(in) is the
// column count; d0 and d1 share a length that is a positive multiple of
// 32 and no longer than any input. d1 may be d0 when its tables are
// zero: d1 is stored first.
//
//go:noescape
func mulPairAVX2(tabs []nibbles, in [][]byte, d0, d1 []byte)
