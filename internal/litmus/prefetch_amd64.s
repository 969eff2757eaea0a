#include "textflag.h"

// func prefetch(addr uintptr)
TEXT ·prefetch(SB), NOSPLIT, $0-8
	MOVQ addr+0(FP), AX
	PREFETCHT0 (AX)
	RET

// func prefetchW(addr uintptr)
TEXT ·prefetchW(SB), NOSPLIT, $0-8
	MOVQ addr+0(FP), AX
	BYTE $0x0F; BYTE $0x0D; BYTE $0x08 // PREFETCHW (AX)
	RET
