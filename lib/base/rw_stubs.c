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
