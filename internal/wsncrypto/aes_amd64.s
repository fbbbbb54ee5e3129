// The AES-256 key expansion and block encryption below are derived from
// the Go standard library's crypto/internal/fips140/aes/aes_amd64.s,
// reduced to the AES-256 encryption path and with the CPUID probe added.
// That code is distributed under this notice:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

#include "textflag.h"

// func cpuidAESNI() bool
TEXT ·cpuidAESNI(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $25, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET

// EXPAND_EVEN derives the next even round key in X0 from the previous one
// and X1 = AESKEYGENASSIST of the previous odd round key, stores it at BX
// and advances BX. X4 holds zero in its low word on entry and keeps it.
#define EXPAND_EVEN \
	PSHUFD $0xff, X1, X1; \
	SHUFPS $0x10, X0, X4; \
	PXOR   X4, X0; \
	SHUFPS $0x8c, X0, X4; \
	PXOR   X4, X0; \
	PXOR   X1, X0; \
	MOVUPS X0, (BX); \
	ADDQ   $0x10, BX

// EXPAND_ODD derives the next odd round key in X2 from the previous one and
// X1 = AESKEYGENASSIST of the even round key just stored (SubWord only).
#define EXPAND_ODD \
	PSHUFD $0xaa, X1, X1; \
	SHUFPS $0x10, X2, X4; \
	PXOR   X4, X2; \
	SHUFPS $0x8c, X2, X4; \
	PXOR   X4, X2; \
	PXOR   X1, X2; \
	MOVUPS X2, (BX); \
	ADDQ   $0x10, BX

// func expandKeyAsm(key *[KeySize]byte, s *schedule)
// Requires: AES, SSE, SSE2
TEXT ·expandKeyAsm(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   s+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS 16(AX), X2
	MOVUPS X0, (BX)
	MOVUPS X2, 16(BX)
	ADDQ   $0x20, BX
	PXOR   X4, X4
	AESKEYGENASSIST $0x01, X2, X1
	EXPAND_EVEN
	AESKEYGENASSIST $0x01, X0, X1
	EXPAND_ODD
	AESKEYGENASSIST $0x02, X2, X1
	EXPAND_EVEN
	AESKEYGENASSIST $0x02, X0, X1
	EXPAND_ODD
	AESKEYGENASSIST $0x04, X2, X1
	EXPAND_EVEN
	AESKEYGENASSIST $0x04, X0, X1
	EXPAND_ODD
	AESKEYGENASSIST $0x08, X2, X1
	EXPAND_EVEN
	AESKEYGENASSIST $0x08, X0, X1
	EXPAND_ODD
	AESKEYGENASSIST $0x10, X2, X1
	EXPAND_EVEN
	AESKEYGENASSIST $0x10, X0, X1
	EXPAND_ODD
	AESKEYGENASSIST $0x20, X2, X1
	EXPAND_EVEN
	AESKEYGENASSIST $0x20, X0, X1
	EXPAND_ODD
	AESKEYGENASSIST $0x40, X2, X1
	EXPAND_EVEN
	RET

// func encryptBlockAsm(s *schedule, dst *[blockSize]byte, src *[blockSize]byte)
// Requires: AES, SSE, SSE2
TEXT ·encryptBlockAsm(SB), NOSPLIT, $0-24
	MOVQ       s+0(FP), AX
	MOVQ       dst+8(FP), DX
	MOVQ       src+16(FP), BX
	MOVUPS     (AX), X1
	MOVUPS     (BX), X0
	PXOR       X1, X0
	MOVUPS     16(AX), X1
	AESENC     X1, X0
	MOVUPS     32(AX), X1
	AESENC     X1, X0
	MOVUPS     48(AX), X1
	AESENC     X1, X0
	MOVUPS     64(AX), X1
	AESENC     X1, X0
	MOVUPS     80(AX), X1
	AESENC     X1, X0
	MOVUPS     96(AX), X1
	AESENC     X1, X0
	MOVUPS     112(AX), X1
	AESENC     X1, X0
	MOVUPS     128(AX), X1
	AESENC     X1, X0
	MOVUPS     144(AX), X1
	AESENC     X1, X0
	MOVUPS     160(AX), X1
	AESENC     X1, X0
	MOVUPS     176(AX), X1
	AESENC     X1, X0
	MOVUPS     192(AX), X1
	AESENC     X1, X0
	MOVUPS     208(AX), X1
	AESENC     X1, X0
	MOVUPS     224(AX), X1
	AESENCLAST X1, X0
	MOVUPS     X0, (DX)
	RET
