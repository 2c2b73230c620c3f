package nn

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state,
// which is when PredictBatch takes the block path.
var hasAVX2 = detectAVX2()

// blockLayer is the AVX2 layer kernel (block_amd64.s): see blockLayer
// there for what it computes and what the caller must slice.
//
//go:noescape
func blockLayer(dst, x, w, bias []float64, out int, relu bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// detectAVX2 checks CPUID leaf 1 for AVX and OSXSAVE (ECX bits 28 and
// 27), XCR0 for OS-saved XMM and YMM state (bits 1 and 2), and CPUID
// leaf 7 for AVX2 (EBX bit 5).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 || xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
