/* SHA-256 compression on the x86 SHA extensions (sha256rnds2,
   sha256msg1, sha256msg2), for Sha256 when the CPU has them.

   Contract with sha256.ml:
   - every entry point is [@@noalloc]: it allocates nothing, raises
     nothing and never enters the OCaml runtime (it only reads string
     lengths from their headers);
   - there is no static mutable state: the code touches only its
     arguments, and all scratch lives on the C stack, so any domain may
     call it at any time;
   - the arguments were checked in OCaml before the call (offsets, block
     counts, lengths), and these functions trust them.

   Only the functions marked VV_TARGET carry the SHA target, so the
   rest of the file builds for any x86-64. Off x86-64 (or without GCC/Clang) the
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

/* Four rounds on the state (A,B,E,F) in [s0] and (C,D,G,H) in [s1]:
   the message words [m] plus constants K[4g..4g+3] drive two
   sha256rnds2. */
#define VV_ROUNDS4(s0, s1, m, g)                                            \
  do {                                                                      \
    __m128i wk_ = _mm_add_epi32(                                            \
        (m), _mm_loadu_si128((const __m128i *)&vv_k256[4 * (g)]));         \
    (s1) = _mm_sha256rnds2_epu32((s1), (s0), wk_);                          \
    (s0) = _mm_sha256rnds2_epu32((s0), (s1), _mm_shuffle_epi32(wk_, 0x0E)); \
  } while (0)

/* W[i..i+3] from the 16 words before them, held in m0..m3 (oldest
   first); the result replaces m0. */
#define VV_SCHEDULE(m0, m1, m2, m3)                                         \
  ((m0) = _mm_sha256msg2_epu32(                                             \
       _mm_add_epi32(_mm_sha256msg1_epu32((m0), (m1)),                      \
                     _mm_alignr_epi8((m3), (m2), 4)),                       \
       (m3)))

/* The 64 rounds of one block, whose first 16 message words are in
   m0..m3, on the state (s0, s1). The caller adds the chaining value. */
#define VV_BLOCK_ROUNDS(s0, s1, m0, m1, m2, m3)                             \
  do {                                                                      \
    int g_;                                                                 \
    VV_ROUNDS4(s0, s1, m0, 0);                                              \
    VV_ROUNDS4(s0, s1, m1, 1);                                              \
    VV_ROUNDS4(s0, s1, m2, 2);                                              \
    VV_ROUNDS4(s0, s1, m3, 3);                                              \
    for (g_ = 4; g_ < 16; g_ += 4) {                                        \
      VV_SCHEDULE(m0, m1, m2, m3);                                          \
      VV_ROUNDS4(s0, s1, m0, g_);                                           \
      VV_SCHEDULE(m1, m2, m3, m0);                                          \
      VV_ROUNDS4(s0, s1, m1, g_ + 1);                                       \
      VV_SCHEDULE(m2, m3, m0, m1);                                          \
      VV_ROUNDS4(s0, s1, m2, g_ + 2);                                       \
      VV_SCHEDULE(m3, m0, m1, m2);                                          \
      VV_ROUNDS4(s0, s1, m3, g_ + 3);                                       \
    }                                                                       \
  } while (0)

#define VV_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/* H0..H7 as loaded from memory (lanes DCBA and HGFE, high to low) to
   the ABEF/CDGH pair that sha256rnds2 works on, and back. */
VV_TARGET static inline __attribute__((always_inline)) void
vv_to_rounds(__m128i dcba, __m128i hgfe, __m128i *abef, __m128i *cdgh)
{
  __m128i t = _mm_shuffle_epi32(dcba, 0xB1);                  /* CDAB */
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);                       /* EFGH */
  *abef = _mm_alignr_epi8(t, hgfe, 8);
  *cdgh = _mm_blend_epi16(hgfe, t, 0xF0);
}

VV_TARGET static inline __attribute__((always_inline)) void
vv_of_rounds(__m128i abef, __m128i cdgh, __m128i *dcba, __m128i *hgfe)
{
  __m128i t = _mm_shuffle_epi32(abef, 0x1B);                  /* FEBA */
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);                       /* DCHG */
  *dcba = _mm_blend_epi16(t, cdgh, 0xF0);
  *hgfe = _mm_alignr_epi8(cdgh, t, 8);
}

/* Byte-swaps each 32-bit lane: big-endian message words to native. */
#define VV_BSWAP32 _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL)

/* Compress [n] consecutive 64-byte blocks at [data] into [state]
   (H0..H7, native order). Loads are unaligned. */
VV_TARGET static void vv_sha256_ni_blocks(uint32_t state[8],
                                          const uint8_t *data, size_t n)
{
  const __m128i bswap = VV_BSWAP32;
  __m128i s0, s1;
  vv_to_rounds(_mm_loadu_si128((const __m128i *)&state[0]),
               _mm_loadu_si128((const __m128i *)&state[4]), &s0, &s1);
  for (; n > 0; n--, data += 64) {
    const __m128i abef = s0, cdgh = s1;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)data), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 48)), bswap);
    VV_BLOCK_ROUNDS(s0, s1, m0, m1, m2, m3);
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }
  vv_of_rounds(s0, s1, &s0, &s1);
  _mm_storeu_si128((__m128i *)&state[0], s0);
  _mm_storeu_si128((__m128i *)&state[4], s1);
}

/* Hash chains: k 32-byte values, each replaced [steps] times by the
   digest of prefix || value, a message that pads to one block. The
   chain value never leaves the xmm registers between steps:

   - A step's block is the template (prefix, a hole for the value, the
     padding and the bit length) with the previous digest in the hole,
     and that digest is the state after the step. So each of the
     block's four message registers is a fixed byte permutation of the
     state pair plus the template's constant bytes: two pshufb and two
     por, with masks built once per call from the prefix length.
   - A step's rounds depend on the one before, so one chain leaves
     sha256rnds2's latency idle. Two lanes each run a chain, their
     rounds interleaved, and a lane whose chain ends takes the next
     chain with steps left. A lane left alone runs by itself.

   The masks place H_w's big-endian bytes; vv_word_at[w] is the byte
   offset of word w in the ABEF/CDGH pair read as 32 bytes. */
static const uint8_t vv_word_at[8] = { 12, 8, 28, 24, 4, 0, 20, 16 };

/* The message registers of the next step of the chain in (s0, s1). */
#define VV_MESSAGE(m, j, s0, s1)                                            \
  ((m) = _mm_or_si128(_mm_or_si128(_mm_shuffle_epi8((s0), from0[j]),       \
                                   _mm_shuffle_epi8((s1), from1[j])),       \
                      fixed[j]))

/* One step of one chain. */
#define VV_CHAIN_STEP(s0, s1)                                               \
  do {                                                                      \
    __m128i m0_, m1_, m2_, m3_;                                             \
    VV_MESSAGE(m0_, 0, s0, s1);                                             \
    VV_MESSAGE(m1_, 1, s0, s1);                                             \
    VV_MESSAGE(m2_, 2, s0, s1);                                             \
    VV_MESSAGE(m3_, 3, s0, s1);                                             \
    (s0) = iv0;                                                             \
    (s1) = iv1;                                                             \
    VV_BLOCK_ROUNDS(s0, s1, m0_, m1_, m2_, m3_);                            \
    (s0) = _mm_add_epi32((s0), iv0);                                        \
    (s1) = _mm_add_epi32((s1), iv1);                                        \
  } while (0)

/* One step of each of two chains, round group by round group. */
#define VV_CHAIN_STEP2(a0, a1, b0, b1)                                      \
  do {                                                                      \
    __m128i am0_, am1_, am2_, am3_, bm0_, bm1_, bm2_, bm3_;                 \
    int g_;                                                                 \
    VV_MESSAGE(am0_, 0, a0, a1);                                            \
    VV_MESSAGE(bm0_, 0, b0, b1);                                            \
    VV_MESSAGE(am1_, 1, a0, a1);                                            \
    VV_MESSAGE(bm1_, 1, b0, b1);                                            \
    VV_MESSAGE(am2_, 2, a0, a1);                                            \
    VV_MESSAGE(bm2_, 2, b0, b1);                                            \
    VV_MESSAGE(am3_, 3, a0, a1);                                            \
    VV_MESSAGE(bm3_, 3, b0, b1);                                            \
    (a0) = (b0) = iv0;                                                      \
    (a1) = (b1) = iv1;                                                      \
    VV_ROUNDS4(a0, a1, am0_, 0);                                            \
    VV_ROUNDS4(b0, b1, bm0_, 0);                                            \
    VV_ROUNDS4(a0, a1, am1_, 1);                                            \
    VV_ROUNDS4(b0, b1, bm1_, 1);                                            \
    VV_ROUNDS4(a0, a1, am2_, 2);                                            \
    VV_ROUNDS4(b0, b1, bm2_, 2);                                            \
    VV_ROUNDS4(a0, a1, am3_, 3);                                            \
    VV_ROUNDS4(b0, b1, bm3_, 3);                                            \
    for (g_ = 4; g_ < 16; g_ += 4) {                                        \
      VV_SCHEDULE(am0_, am1_, am2_, am3_);                                  \
      VV_SCHEDULE(bm0_, bm1_, bm2_, bm3_);                                  \
      VV_ROUNDS4(a0, a1, am0_, g_);                                         \
      VV_ROUNDS4(b0, b1, bm0_, g_);                                         \
      VV_SCHEDULE(am1_, am2_, am3_, am0_);                                  \
      VV_SCHEDULE(bm1_, bm2_, bm3_, bm0_);                                  \
      VV_ROUNDS4(a0, a1, am1_, g_ + 1);                                     \
      VV_ROUNDS4(b0, b1, bm1_, g_ + 1);                                     \
      VV_SCHEDULE(am2_, am3_, am0_, am1_);                                  \
      VV_SCHEDULE(bm2_, bm3_, bm0_, bm1_);                                  \
      VV_ROUNDS4(a0, a1, am2_, g_ + 2);                                     \
      VV_ROUNDS4(b0, b1, bm2_, g_ + 2);                                     \
      VV_SCHEDULE(am3_, am0_, am1_, am2_);                                  \
      VV_SCHEDULE(bm3_, bm0_, bm1_, bm2_);                                  \
      VV_ROUNDS4(a0, a1, am3_, g_ + 3);                                     \
      VV_ROUNDS4(b0, b1, bm3_, g_ + 3);                                     \
    }                                                                       \
    (a0) = _mm_add_epi32((a0), iv0);                                        \
    (a1) = _mm_add_epi32((a1), iv1);                                        \
    (b0) = _mm_add_epi32((b0), iv0);                                        \
    (b1) = _mm_add_epi32((b1), iv1);                                        \
  } while (0)

/* The 32-byte value at [v] into a lane's state pair, and back. */
#define VV_LOAD_VALUE(s0, s1, v)                                            \
  vv_to_rounds(                                                             \
      _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(v)), bswap),       \
      _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)((v) + 16)), bswap), \
      &(s0), &(s1))

#define VV_STORE_VALUE(v, s0, s1)                                           \
  do {                                                                      \
    __m128i lo_, hi_;                                                       \
    vv_of_rounds((s0), (s1), &lo_, &hi_);                                   \
    _mm_storeu_si128((__m128i *)(v), _mm_shuffle_epi8(lo_, bswap));         \
    _mm_storeu_si128((__m128i *)((v) + 16), _mm_shuffle_epi8(hi_, bswap));  \
  } while (0)

/* A lane whose chain [i] has no steps left stores it and takes the
   next chain with steps, from [next]; [i] becomes k when none is left. */
#define VV_REFILL(i, left, s0, s1)                                          \
  do {                                                                      \
    if ((i) < k) VV_STORE_VALUE(vals + (32 * (i)), s0, s1);                 \
    while (next < k && steps[next] == 0) next++;                            \
    (i) = next < k ? next++ : k;                                            \
    if ((i) < k) {                                                          \
      VV_LOAD_VALUE(s0, s1, vals + (32 * (i)));                             \
      (left) = steps[i];                                                    \
    }                                                                       \
  } while (0)

VV_TARGET static void vv_sha256_ni_chains_run(const uint8_t *prefix, size_t p,
                                              uint8_t *vals,
                                              const uint8_t *steps, size_t k)
{
  const __m128i bswap = VV_BSWAP32;
  __m128i from0[4], from1[4], fixed[4], iv0, iv1;
  __m128i a0 = _mm_setzero_si128(), a1 = a0, b0 = a0, b1 = a0;
  uint8_t tmpl[64], m0[16], m1[16], mc[16];
  uint64_t bits = 8 * (uint64_t)(p + 32);
  size_t next = 0, ia = k, ib = k; /* a lane's chain, or k when idle */
  unsigned na = 0, nb = 0;         /* steps its chain has left */
  int j, b;

  memset(tmpl, 0, sizeof tmpl);
  memcpy(tmpl, prefix, p);
  tmpl[p + 32] = 0x80;
  for (b = 0; b < 8; b++) tmpl[56 + b] = (uint8_t)(bits >> (56 - (8 * b)));
  /* Byte b of message register j is byte 3 - b % 4 of big-endian word
     4j + b / 4 of the block. */
  for (j = 0; j < 4; j++) {
    for (b = 0; b < 16; b++) {
      size_t q = (size_t)((16 * j) + (4 * (b / 4)) + 3 - (b % 4));
      m0[b] = m1[b] = 0x80; /* pshufb writes 0 */
      mc[b] = 0;
      if (q >= p && q < p + 32) {
        size_t d = q - p;
        uint8_t at = (uint8_t)(vv_word_at[d / 4] + 3 - (d % 4));
        if (at < 16) m0[b] = at;
        else m1[b] = (uint8_t)(at - 16);
      } else mc[b] = tmpl[q];
    }
    from0[j] = _mm_loadu_si128((const __m128i *)m0);
    from1[j] = _mm_loadu_si128((const __m128i *)m1);
    fixed[j] = _mm_loadu_si128((const __m128i *)mc);
  }
  vv_to_rounds(_mm_loadu_si128((const __m128i *)&vv_iv[0]),
               _mm_loadu_si128((const __m128i *)&vv_iv[4]), &iv0, &iv1);

  for (;;) {
    if (na == 0) VV_REFILL(ia, na, a0, a1);
    if (nb == 0) VV_REFILL(ib, nb, b0, b1);
    if (ia < k && ib < k) {
      unsigned n = na < nb ? na : nb;
      na -= n;
      nb -= n;
      for (; n > 0; n--) VV_CHAIN_STEP2(a0, a1, b0, b1);
    } else if (ia < k) {
      for (; na > 0; na--) VV_CHAIN_STEP(a0, a1);
    } else if (ib < k) {
      for (; nb > 0; nb--) VV_CHAIN_STEP(b0, b1);
    } else
      break;
  }
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

/* [vals] holds k = length [steps] chain values of 32 bytes; chain i
   is hashed steps[i] times as digest (prefix || value), in place. The
   caller checked that [prefix] is at most 23 bytes and [vals] is
   32 * k bytes. */
value vv_sha256_ni_chains(value prefix, value vals, value steps)
{
  vv_sha256_ni_chains_run((const uint8_t *)String_val(prefix),
                          caml_string_length(prefix), Bytes_val(vals),
                          (const uint8_t *)String_val(steps),
                          caml_string_length(steps));
  return Val_unit;
}

#else

static int vv_sha_ni_present(void) { return 0; }

value vv_sha256_ni_compress(value h, value buf, value off, value n)
{
  (void)h; (void)buf; (void)off; (void)n;
  abort();
}

value vv_sha256_ni_chains(value prefix, value vals, value steps)
{
  (void)prefix; (void)vals; (void)steps;
  abort();
}

#endif

value vv_sha256_ni_available(value unit)
{
  (void)unit;
  return Val_bool(vv_sha_ni_present());
}
