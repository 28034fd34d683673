/* SHA-256 compression on the x86 SHA extensions (sha256rnds2,
   sha256msg1, sha256msg2), for Sha256 when the CPU has them.

   Contract with sha256.ml:
   - every entry point is [@@noalloc]: it allocates nothing, raises
     nothing and never enters the OCaml runtime;
   - there is no static mutable state: the code touches only its
     arguments, and all scratch lives on the C stack, so any domain may
     call it at any time;
   - the arguments were checked in OCaml before the call (offsets, block
     counts, lengths), and these functions trust them.

   Only vv_sha256_ni_blocks carries the SHA target, so the rest of the
   file builds for any x86-64. Off x86-64 (or without GCC/Clang) the
   probe answers "no extensions" and the other entry points are never
   called. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VV_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#ifdef VV_SHA_NI

static const uint32_t vv_k256[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static const uint32_t vv_iv[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19
};

/* Four rounds: the message words [m] plus constants K[4g..4g+3] drive
   two sha256rnds2, which keep the state as (A,B,E,F) in s0 and
   (C,D,G,H) in s1. */
#define VV_ROUNDS4(m, g)                                                    \
  do {                                                                      \
    __m128i wk_ = _mm_add_epi32(                                            \
        (m), _mm_loadu_si128((const __m128i *)&vv_k256[4 * (g)]));         \
    s1 = _mm_sha256rnds2_epu32(s1, s0, wk_);                                \
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(wk_, 0x0E));       \
  } while (0)

/* W[i..i+3] from the 16 words before them, held in m0..m3 (oldest
   first); the result replaces m0. */
#define VV_SCHEDULE(m0, m1, m2, m3)                                         \
  ((m0) = _mm_sha256msg2_epu32(                                             \
       _mm_add_epi32(_mm_sha256msg1_epu32((m0), (m1)),                      \
                     _mm_alignr_epi8((m3), (m2), 4)),                       \
       (m3)))

/* Compress [n] consecutive 64-byte blocks at [data] into [state]
   (H0..H7, native order). Loads are unaligned. */
__attribute__((target("sha,sse4.1,ssse3")))
static void vv_sha256_ni_blocks(uint32_t state[8], const uint8_t *data,
                                size_t n)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i t = _mm_loadu_si128((const __m128i *)&state[0]);   /* DCBA */
  __m128i s1 = _mm_loadu_si128((const __m128i *)&state[4]);  /* HGFE */
  __m128i s0;
  t = _mm_shuffle_epi32(t, 0xB1);                             /* CDAB */
  s1 = _mm_shuffle_epi32(s1, 0x1B);                           /* EFGH */
  s0 = _mm_alignr_epi8(t, s1, 8);                             /* ABEF */
  s1 = _mm_blend_epi16(s1, t, 0xF0);                          /* CDGH */
  for (; n > 0; n--, data += 64) {
    const __m128i abef = s0, cdgh = s1;
    __m128i m0, m1, m2, m3;
    int g;
    m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)data), bswap);
    VV_ROUNDS4(m0, 0);
    m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 16)), bswap);
    VV_ROUNDS4(m1, 1);
    m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 32)), bswap);
    VV_ROUNDS4(m2, 2);
    m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 48)), bswap);
    VV_ROUNDS4(m3, 3);
    for (g = 4; g < 16; g += 4) {
      VV_SCHEDULE(m0, m1, m2, m3);
      VV_ROUNDS4(m0, g);
      VV_SCHEDULE(m1, m2, m3, m0);
      VV_ROUNDS4(m1, g + 1);
      VV_SCHEDULE(m2, m3, m0, m1);
      VV_ROUNDS4(m2, g + 2);
      VV_SCHEDULE(m3, m0, m1, m2);
      VV_ROUNDS4(m3, g + 3);
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }
  t = _mm_shuffle_epi32(s0, 0x1B);                            /* FEBA */
  s1 = _mm_shuffle_epi32(s1, 0xB1);                           /* DCHG */
  s0 = _mm_blend_epi16(t, s1, 0xF0);                          /* DCBA */
  s1 = _mm_alignr_epi8(s1, t, 8);                             /* HGFE */
  _mm_storeu_si128((__m128i *)&state[0], s0);
  _mm_storeu_si128((__m128i *)&state[4], s1);
}

/* cpuid leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19
   (SSE4.1). */
static int vv_sha_ni_present(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & (1u << 29)) != 0;
}

static void vv_store_be32(uint8_t *p, uint32_t x)
{
  p[0] = (uint8_t)(x >> 24);
  p[1] = (uint8_t)(x >> 16);
  p[2] = (uint8_t)(x >> 8);
  p[3] = (uint8_t)x;
}

/* The state lives in an OCaml int array of 8 words; immediates are
   read and written in place, with no allocation and no write barrier. */
value vv_sha256_ni_compress(value h, value buf, value off, value n)
{
  uint32_t st[8];
  int i;
  for (i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  vv_sha256_ni_blocks(st, Bytes_val(buf) + Long_val(off), Long_val(n));
  for (i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

/* [block] is one padded block whose bytes [p, p + 32) hold the chain
   value; [n] times, the value becomes the digest of the block. */
value vv_sha256_ni_iterate(value block, value p, value n)
{
  uint8_t blk[64];
  uint8_t *v = blk + Long_val(p);
  intnat steps = Long_val(n);
  memcpy(blk, Bytes_val(block), 64);
  for (; steps > 0; steps--) {
    uint32_t st[8];
    int i;
    memcpy(st, vv_iv, sizeof st);
    vv_sha256_ni_blocks(st, blk, 1);
    for (i = 0; i < 8; i++) vv_store_be32(v + (4 * i), st[i]);
  }
  memcpy(Bytes_val(block) + Long_val(p), v, 32);
  return Val_unit;
}

#else

static int vv_sha_ni_present(void) { return 0; }

value vv_sha256_ni_compress(value h, value buf, value off, value n)
{
  (void)h; (void)buf; (void)off; (void)n;
  abort();
}

value vv_sha256_ni_iterate(value block, value p, value n)
{
  (void)block; (void)p; (void)n;
  abort();
}

#endif

value vv_sha256_ni_available(value unit)
{
  (void)unit;
  return Val_bool(vv_sha_ni_present());
}
