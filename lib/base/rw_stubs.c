/* Block copies between float arrays and the wire's 8-byte
 * little-endian words (Rw.write_floatarray / Rw.read_floatarray).
 *
 * A floatarray is a flat block of native doubles, so on a
 * little-endian host the wire image is the array's memory and one
 * memcpy moves it; a big-endian host swaps each word, which keeps the
 * bytes identical across hosts.  The OCaml side checks every range
 * before calling; these stubs neither allocate nor check. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

CAMLprim value triolet_rw_floats_to_bytes(value src, value src_off, value dst,
                                          value dst_off, value len)
{
  const double *s = (const double *)src + Long_val(src_off);
  unsigned char *d = Bytes_val(dst) + Long_val(dst_off);
  size_t n = (size_t)Long_val(len);
#ifdef ARCH_BIG_ENDIAN
  for (size_t i = 0; i < n; i++) {
    uint64_t u;
    memcpy(&u, s + i, 8);
    for (int k = 0; k < 8; k++) d[8 * i + k] = (unsigned char)(u >> (8 * k));
  }
#else
  memcpy(d, s, 8 * n);
#endif
  return Val_unit;
}

CAMLprim value triolet_rw_bytes_to_floats(value src, value src_off, value dst,
                                          value dst_off, value len)
{
  const unsigned char *s = Bytes_val(src) + Long_val(src_off);
  double *d = (double *)dst + Long_val(dst_off);
  size_t n = (size_t)Long_val(len);
#ifdef ARCH_BIG_ENDIAN
  for (size_t i = 0; i < n; i++) {
    uint64_t u = 0;
    for (int k = 0; k < 8; k++) u |= (uint64_t)s[8 * i + k] << (8 * k);
    memcpy(d + i, &u, 8);
  }
#else
  memcpy(d, s, 8 * n);
#endif
  return Val_unit;
}

/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
 * of zlib and Ethernet frames (Rw.crc32).
 *
 * Two paths compute the same value.  The portable one is table-driven
 * and sliced by 8: crc_table[k] advances a byte's CRC through k further
 * zero bytes, so one step folds 8 input bytes with 8 lookups.  On
 * x86-64 hosts with PCLMULQDQ the bulk of a buffer instead goes
 * through the carry-less-multiply folding of Gopal et al., "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ Instruction"
 * (Intel, 2009): four 128-bit lanes fold 64 bytes per step, the lanes
 * fold into one, 16-byte blocks fold into it, and the 128-bit
 * remainder is reduced to 64 bits and Barrett-reduced to 32.  The
 * tail of fewer than 16 bytes, and any buffer shorter than 64, takes
 * the table path.
 *
 * triolet_rw_crc32_init builds the table and picks the path once; Rw
 * calls it while its module initializes, before any other domain can
 * run.  The checksum stubs neither allocate nor check their range. */

static uint32_t crc_table[8][256];

static uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 |
         (uint32_t)p[3] << 24;
}

/* c is the running (pre-inverted) CRC register. */
static uint32_t crc_table_update(uint32_t c, const unsigned char *p, size_t n)
{
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = c ^ load_le32(p), hi = load_le32(p + 4);
    c = crc_table[7][lo & 0xff] ^ crc_table[6][(lo >> 8) & 0xff] ^
        crc_table[5][(lo >> 16) & 0xff] ^ crc_table[4][lo >> 24] ^
        crc_table[3][hi & 0xff] ^ crc_table[2][(hi >> 8) & 0xff] ^
        crc_table[1][(hi >> 16) & 0xff] ^ crc_table[0][hi >> 24];
  }
  for (; n > 0; p++, n--) c = crc_table[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TRIOLET_CRC_FOLD
#include <immintrin.h>

static int crc_use_fold;

/* The fold constants, bit-reflected and shifted left by one: x^(4*128+32) and
 * x^(4*128-32) mod P fold 64 bytes, x^(128+32) and x^(128-32) mod P
 * fold 16 bytes, x^64 mod P folds 128 bits to 64, and P' with
 * mu = floor(x^64 / P) drive the Barrett reduction. */
#define CRC_K1 0x154442bd4LL
#define CRC_K2 0x1c6e41596LL
#define CRC_K3 0x1751997d0LL
#define CRC_K4 0x0ccaa009eLL
#define CRC_K5 0x163cd6124LL
#define CRC_P 0x1db710641LL
#define CRC_MU 0x1f7011641LL

/* a times the two 64-bit halves of k (low by low, high by high), XORed
 * with next: one lane moved 128 bits further along. */
__attribute__((target("pclmul,sse4.1"))) static inline __m128i
fold16(__m128i a, __m128i k, __m128i next)
{
  __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/* Requires n >= 64 and n a multiple of 16. */
__attribute__((target("pclmul,sse4.1"))) static uint32_t
crc_fold_update(uint32_t c, const unsigned char *p, size_t n)
{
  const __m128i k12 = _mm_set_epi64x(CRC_K2, CRC_K1);
  const __m128i k34 = _mm_set_epi64x(CRC_K4, CRC_K3);
  const __m128i k5 = _mm_set_epi64x(0, CRC_K5);
  const __m128i pmu = _mm_set_epi64x(CRC_MU, CRC_P);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i x0 = _mm_loadu_si128((const __m128i *)p);
  __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 16));
  __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 32));
  __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 48));
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128((int)c));
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k12, _mm_loadu_si128((const __m128i *)p));
    x1 = fold16(x1, k12, _mm_loadu_si128((const __m128i *)(p + 16)));
    x2 = fold16(x2, k12, _mm_loadu_si128((const __m128i *)(p + 32)));
    x3 = fold16(x3, k12, _mm_loadu_si128((const __m128i *)(p + 48)));
  }
  x0 = fold16(x0, k34, x1);
  x0 = fold16(x0, k34, x2);
  x0 = fold16(x0, k34, x3);
  for (; n >= 16; p += 16, n -= 16)
    x0 = fold16(x0, k34, _mm_loadu_si128((const __m128i *)p));
  /* 128 bits to 64: the low half times K4 into the high half, then the
   * low 32 bits times K5 into the remaining 64. */
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k34, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5,
                                          0x00));
  /* Barrett: q = (low 32 bits * mu) mod x^32, then remainder ^= q * P. */
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), pmu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), pmu, 0x00);
  return (uint32_t)_mm_extract_epi32(_mm_xor_si128(x0, q), 1);
}
#endif

CAMLprim value triolet_rw_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = crc_table[k - 1][n];
      crc_table[k][n] = (prev >> 8) ^ crc_table[0][prev & 0xff];
    }
#ifdef TRIOLET_CRC_FOLD
  crc_use_fold =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
  return Val_unit;
}

CAMLprim value triolet_rw_crc32(value b, value off, value len)
{
  const unsigned char *p = Bytes_val(b) + Long_val(off);
  size_t n = (size_t)Long_val(len);
  uint32_t c = 0xFFFFFFFFu;
#ifdef TRIOLET_CRC_FOLD
  if (crc_use_fold && n >= 64) {
    size_t bulk = n & ~(size_t)15;
    c = crc_fold_update(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return Val_long(crc_table_update(c, p, n) ^ 0xFFFFFFFFu);
}

CAMLprim value triolet_rw_crc32_portable(value b, value off, value len)
{
  const unsigned char *p = Bytes_val(b) + Long_val(off);
  return Val_long(crc_table_update(0xFFFFFFFFu, p, (size_t)Long_val(len)) ^
                  0xFFFFFFFFu);
}
