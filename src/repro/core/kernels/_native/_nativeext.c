/* Native popcount primitives over the packed uint64 bit-matrix.
 *
 * The Python-facing kernel layer (repro.core.kernels.native_backend) keeps
 * the exact layout of the numpy backend: row r of `matrix` is the
 * little-endian 64-bit-word packing of one entity's set mask, a
 * sub-collection mask packs into one word vector of the same width, and
 * every statistic is an AND + popcount over those words.  This module
 * replaces the numpy ufunc pipeline (broadcast AND materialising a
 * temporary, bitwise_count materialising another, then a sum reduction)
 * with single fused C passes that allocate nothing and release the GIL —
 * which is what lets the sharded kernel's "thread" executor (the one
 * parallel shard executor; "serial" is the other) scale on columns.
 *
 * The dense word sweeps are runtime-dispatched across up to three SIMD
 * tiers (scalar popcnt, AVX2 vpshufb-lookup, AVX-512 vpopcntq) compiled
 * in separate translation units (_simd_avx2.c / _simd_avx512.c, per-file
 * -m flags in setup.py).  The best CPU-supported tier is selected once at
 * import via CPUID (__builtin_cpu_supports); simd_level() /
 * set_simd_level() expose and override the choice, and the Python loader
 * honors REPRO_SIMD=scalar|avx2|avx512.  Every tier computes exact
 * integer popcounts, so results are byte-identical across tiers.
 *
 * All arguments are plain buffer-protocol objects (numpy arrays, bytes,
 * memoryviews): no numpy C API, no compile-time dependency beyond the
 * CPython headers.  Buffers must be C-contiguous; lengths are validated
 * against the declared word/row geometry before any pointer arithmetic.
 *
 * Semantics match the reference backends bit for bit:
 *   - row indices < 0 (unknown entity ids) count 0 / partition to 0;
 *   - the informative filter is strict: 0 < count < n_selected;
 *   - masks are pre-truncated to the matrix width by the Python layer
 *     (`_words_of` drops bits above n_sets), so no extra masking here.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#include "_simd.h"

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64(x) ((int64_t)__builtin_popcountll(x))
#elif defined(_MSC_VER) && defined(_M_X64)
#include <intrin.h>
#define POPCOUNT64(x) ((int64_t)__popcnt64(x))
#else
static inline int64_t
popcount64_soft(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}
#define POPCOUNT64(x) popcount64_soft(x)
#endif

/* ------------------------------------------------------------------ */
/* Buffer plumbing                                                    */
/* ------------------------------------------------------------------ */

static int
get_words(PyObject *obj, Py_buffer *view, int writable, const char *name,
          Py_ssize_t *n_items)
{
    int flags = writable ? PyBUF_CONTIG : PyBUF_CONTIG_RO;
    if (PyObject_GetBuffer(obj, view, flags) != 0) {
        return -1;
    }
    if (view->len % 8 != 0) {
        PyErr_Format(PyExc_ValueError,
                     "%s buffer length %zd is not a multiple of 8", name,
                     view->len);
        PyBuffer_Release(view);
        return -1;
    }
    *n_items = view->len / 8;
    return 0;
}

static int
check_len(Py_ssize_t got, Py_ssize_t want, const char *name)
{
    if (got != want) {
        PyErr_Format(PyExc_ValueError, "%s has %zd items, expected %zd",
                     name, got, want);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Scalar tier + SIMD dispatch                                        */
/* ------------------------------------------------------------------ */

static inline int64_t
row_count_scalar(const uint64_t *row, const uint64_t *mask,
                 Py_ssize_t n_words)
{
    /* Four independent accumulators: scalar popcnt has a one-per-cycle
     * throughput but (on many x86 cores) a false output dependency, so a
     * single accumulator chain serialises at ~3 cycles/word. */
    int64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    Py_ssize_t w = 0;
    for (; w + 4 <= n_words; w += 4) {
        c0 += POPCOUNT64(row[w] & mask[w]);
        c1 += POPCOUNT64(row[w + 1] & mask[w + 1]);
        c2 += POPCOUNT64(row[w + 2] & mask[w + 2]);
        c3 += POPCOUNT64(row[w + 3] & mask[w + 3]);
    }
    for (; w < n_words; w++) {
        c0 += POPCOUNT64(row[w] & mask[w]);
    }
    return c0 + c1 + c2 + c3;
}

static Py_ssize_t
scan_rows_scalar(const uint64_t *matrix, Py_ssize_t n_rows,
                 Py_ssize_t n_words, const uint64_t *mask,
                 int64_t n_selected, int64_t *out_rows, int64_t *out_counts)
{
    Py_ssize_t kept = 0;
    for (Py_ssize_t r = 0; r < n_rows; r++) {
        int64_t c = row_count_scalar(matrix + r * n_words, mask, n_words);
        if (c > 0 && c < n_selected) {
            out_rows[kept] = r;
            out_counts[kept] = c;
            kept++;
        }
    }
    return kept;
}

static void
and_words_scalar(const uint64_t *row, const uint64_t *mask, uint64_t *dst,
                 Py_ssize_t n_words)
{
    for (Py_ssize_t w = 0; w < n_words; w++) {
        dst[w] = row[w] & mask[w];
    }
}

static const repro_simd_ops scalar_ops = {
    "scalar",
    row_count_scalar,
    scan_rows_scalar,
    and_words_scalar,
};

/* The active tier.  Read once (under the GIL) at the top of every entry
 * point, then passed down into the GIL-released loops, so a concurrent
 * set_simd_level() never flips an in-flight scan between tiers. */
static const repro_simd_ops *g_ops = &scalar_ops;

static const char *const simd_tier_names[] = {"scalar", "avx2", "avx512"};
#define N_SIMD_TIERS 3

static const repro_simd_ops *
tier_ops(const char *name)
{
    if (strcmp(name, "scalar") == 0) {
        return &scalar_ops;
    }
    if (strcmp(name, "avx2") == 0) {
        return repro_simd_avx2_ops();
    }
    if (strcmp(name, "avx512") == 0) {
        return repro_simd_avx512_ops();
    }
    return NULL;
}

static int
cpu_supports_tier(const char *name)
{
    if (strcmp(name, "scalar") == 0) {
        return 1;
    }
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
    if (strcmp(name, "avx2") == 0) {
        return __builtin_cpu_supports("avx2") != 0;
    }
    if (strcmp(name, "avx512") == 0) {
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512vpopcntdq") != 0;
    }
#endif
    return 0;
}

/* A tier is usable when its translation unit was compiled in AND the
 * running CPU reports the feature (which, via libgcc's XCR0 checks,
 * also covers OS state support for the AVX register files). */
static int
tier_usable(const char *name)
{
    return tier_ops(name) != NULL && cpu_supports_tier(name);
}

PyDoc_STRVAR(simd_level_doc,
             "simd_level()\n--\n\n"
             "Name of the active SIMD tier: 'scalar', 'avx2' or 'avx512'.");

static PyObject *
simd_level_fn(PyObject *self, PyObject *noargs)
{
    return PyUnicode_FromString(g_ops->name);
}

PyDoc_STRVAR(available_simd_levels_doc,
             "available_simd_levels()\n--\n\n"
             "Tuple of tier names selectable on this build + CPU, in\n"
             "ascending width order ('scalar' is always present).");

static PyObject *
available_simd_levels_fn(PyObject *self, PyObject *noargs)
{
    PyObject *out = PyList_New(0);
    if (out == NULL) {
        return NULL;
    }
    for (int i = 0; i < N_SIMD_TIERS; i++) {
        if (!tier_usable(simd_tier_names[i])) {
            continue;
        }
        PyObject *name = PyUnicode_FromString(simd_tier_names[i]);
        if (name == NULL || PyList_Append(out, name) != 0) {
            Py_XDECREF(name);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(name);
    }
    PyObject *tup = PyList_AsTuple(out);
    Py_DECREF(out);
    return tup;
}

PyDoc_STRVAR(set_simd_level_doc,
             "set_simd_level(level)\n--\n\n"
             "Switch the active tier ('scalar', 'avx2', 'avx512').  Raises\n"
             "ValueError when the tier is not compiled in or the CPU lacks\n"
             "it.  Returns the now-active level.");

static PyObject *
set_simd_level_fn(PyObject *self, PyObject *args)
{
    const char *name;
    if (!PyArg_ParseTuple(args, "s", &name)) {
        return NULL;
    }
    const repro_simd_ops *ops = tier_usable(name) ? tier_ops(name) : NULL;
    if (ops == NULL) {
        PyErr_Format(PyExc_ValueError,
                     "SIMD level %.32s is not available on this build/CPU",
                     name);
        return NULL;
    }
    g_ops = ops;
    return PyUnicode_FromString(g_ops->name);
}

/* ------------------------------------------------------------------ */
/* Core loops (GIL released by the callers)                           */
/* ------------------------------------------------------------------ */

/* Nonzero-word indices of one mask; sparse session masks make most of
 * the row pass skippable.  Returns the count written into nz. */
static Py_ssize_t
nonzero_words(const uint64_t *mask, Py_ssize_t n_words, Py_ssize_t *nz)
{
    Py_ssize_t n_nz = 0;
    for (Py_ssize_t w = 0; w < n_words; w++) {
        if (mask[w]) {
            nz[n_nz++] = w;
        }
    }
    return n_nz;
}

static inline int64_t
row_count_sparse(const uint64_t *row, const uint64_t *mask,
                 const Py_ssize_t *nz, Py_ssize_t n_nz)
{
    int64_t c = 0;
    for (Py_ssize_t k = 0; k < n_nz; k++) {
        Py_ssize_t w = nz[k];
        c += POPCOUNT64(row[w] & mask[w]);
    }
    return c;
}

/* counts[i] = popcount(matrix[rows[i]] & mask); rows < 0 or out of range
 * count 0. */
static void
counts_for_rows(const repro_simd_ops *ops, const uint64_t *matrix,
                Py_ssize_t n_rows, Py_ssize_t n_words, const int64_t *rows,
                Py_ssize_t n_out, const uint64_t *mask, const Py_ssize_t *nz,
                Py_ssize_t n_nz, int64_t *out)
{
    int sparse = (2 * n_nz < n_words);
    for (Py_ssize_t i = 0; i < n_out; i++) {
        int64_t r = rows[i];
        if (r < 0 || r >= n_rows) {
            out[i] = 0;
            continue;
        }
        const uint64_t *row = matrix + (Py_ssize_t)r * n_words;
        out[i] = sparse ? row_count_sparse(row, mask, nz, n_nz)
                        : ops->row_count(row, mask, n_words);
    }
}

/* Full-matrix informative scan: keep rows with 0 < count < n_selected. */
static Py_ssize_t
scan_one(const repro_simd_ops *ops, const uint64_t *matrix,
         Py_ssize_t n_rows, Py_ssize_t n_words, const uint64_t *mask,
         int64_t n_selected, const Py_ssize_t *nz, Py_ssize_t n_nz,
         int64_t *out_rows, int64_t *out_counts)
{
    if (n_nz == 0) {
        return 0;
    }
    if (2 * n_nz >= n_words) {
        return ops->scan_rows(matrix, n_rows, n_words, mask, n_selected,
                              out_rows, out_counts);
    }
    Py_ssize_t kept = 0;
    for (Py_ssize_t r = 0; r < n_rows; r++) {
        int64_t c = row_count_sparse(matrix + r * n_words, mask, nz, n_nz);
        if (c > 0 && c < n_selected) {
            out_rows[kept] = r;
            out_counts[kept] = c;
            kept++;
        }
    }
    return kept;
}

/* Stacked scan body of scan_informative_many: one scan_one per mask. */
static Py_ssize_t
scan_many_serial(const repro_simd_ops *ops, const uint64_t *matrix,
                 Py_ssize_t n_rows, Py_ssize_t n_words,
                 const uint64_t *mask_base, Py_ssize_t n_masks,
                 const int64_t *ns_base, Py_ssize_t *nz, int64_t *out_rows,
                 int64_t *out_counts, int64_t *ip)
{
    Py_ssize_t total = 0;
    ip[0] = 0;
    for (Py_ssize_t s = 0; s < n_masks; s++) {
        const uint64_t *mask = mask_base + s * n_words;
        Py_ssize_t n_nz = nonzero_words(mask, n_words, nz);
        Py_ssize_t kept =
            scan_one(ops, matrix, n_rows, n_words, mask, ns_base[s], nz,
                     n_nz, out_rows + total, out_counts + total);
        total += kept;
        ip[s + 1] = total;
    }
    return total;
}

/* ------------------------------------------------------------------ */
/* Python entry points                                                */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(popcount_rows_doc,
             "popcount_rows(matrix, n_words, rows, mask_words, out)\n--\n\n"
             "out[i] = popcount(matrix[rows[i]] & mask_words); rows < 0\n"
             "(unknown entities) count 0.  Releases the GIL.");

static PyObject *
popcount_rows(PyObject *self, PyObject *args)
{
    PyObject *matrix_o, *rows_o, *mask_o, *out_o;
    Py_ssize_t n_words;
    if (!PyArg_ParseTuple(args, "OnOOO", &matrix_o, &n_words, &rows_o,
                          &mask_o, &out_o)) {
        return NULL;
    }
    Py_buffer matrix, rows, mask, out;
    Py_ssize_t n_matrix, n_rows_idx, n_mask, n_out;
    if (n_words <= 0) {
        PyErr_SetString(PyExc_ValueError, "n_words must be positive");
        return NULL;
    }
    if (get_words(matrix_o, &matrix, 0, "matrix", &n_matrix) != 0) {
        return NULL;
    }
    if (get_words(rows_o, &rows, 0, "rows", &n_rows_idx) != 0) {
        goto err_matrix;
    }
    if (get_words(mask_o, &mask, 0, "mask_words", &n_mask) != 0) {
        goto err_rows;
    }
    if (get_words(out_o, &out, 1, "out", &n_out) != 0) {
        goto err_mask;
    }
    if (check_len(n_mask, n_words, "mask_words") != 0 ||
        check_len(n_out, n_rows_idx, "out") != 0) {
        goto err_out;
    }
    if (n_matrix % n_words != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "matrix length not a multiple of n_words");
        goto err_out;
    }
    {
        const repro_simd_ops *ops = g_ops;
        Py_ssize_t n_rows = n_matrix / n_words;
        Py_ssize_t *nz = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)n_words);
        if (nz == NULL) {
            PyErr_NoMemory();
            goto err_out;
        }
        Py_BEGIN_ALLOW_THREADS;
        Py_ssize_t n_nz = nonzero_words(mask.buf, n_words, nz);
        counts_for_rows(ops, matrix.buf, n_rows, n_words, rows.buf,
                        n_rows_idx, mask.buf, nz, n_nz, out.buf);
        Py_END_ALLOW_THREADS;
        PyMem_Free(nz);
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&mask);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&matrix);
    Py_RETURN_NONE;

err_out:
    PyBuffer_Release(&out);
err_mask:
    PyBuffer_Release(&mask);
err_rows:
    PyBuffer_Release(&rows);
err_matrix:
    PyBuffer_Release(&matrix);
    return NULL;
}

PyDoc_STRVAR(
    popcount_rows_many_doc,
    "popcount_rows_many(matrix, n_words, rows, masks, out)\n--\n\n"
    "Stacked popcount_rows: masks is S stacked word vectors, out is the\n"
    "S x len(rows) int64 count matrix (row-major).  Releases the GIL.");

static PyObject *
popcount_rows_many(PyObject *self, PyObject *args)
{
    PyObject *matrix_o, *rows_o, *masks_o, *out_o;
    Py_ssize_t n_words;
    if (!PyArg_ParseTuple(args, "OnOOO", &matrix_o, &n_words, &rows_o,
                          &masks_o, &out_o)) {
        return NULL;
    }
    Py_buffer matrix, rows, masks, out;
    Py_ssize_t n_matrix, n_rows_idx, n_mask_words, n_out;
    if (n_words <= 0) {
        PyErr_SetString(PyExc_ValueError, "n_words must be positive");
        return NULL;
    }
    if (get_words(matrix_o, &matrix, 0, "matrix", &n_matrix) != 0) {
        return NULL;
    }
    if (get_words(rows_o, &rows, 0, "rows", &n_rows_idx) != 0) {
        goto err_matrix;
    }
    if (get_words(masks_o, &masks, 0, "masks", &n_mask_words) != 0) {
        goto err_rows;
    }
    if (get_words(out_o, &out, 1, "out", &n_out) != 0) {
        goto err_masks;
    }
    if (n_matrix % n_words != 0 || n_mask_words % n_words != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "matrix/masks length not a multiple of n_words");
        goto err_out;
    }
    {
        Py_ssize_t n_masks = n_mask_words / n_words;
        if (check_len(n_out, n_masks * n_rows_idx, "out") != 0) {
            goto err_out;
        }
        const repro_simd_ops *ops = g_ops;
        Py_ssize_t n_rows = n_matrix / n_words;
        Py_ssize_t *nz = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)n_words);
        if (nz == NULL) {
            PyErr_NoMemory();
            goto err_out;
        }
        Py_BEGIN_ALLOW_THREADS;
        const uint64_t *mask_base = masks.buf;
        int64_t *out_base = out.buf;
        for (Py_ssize_t s = 0; s < n_masks; s++) {
            const uint64_t *mask = mask_base + s * n_words;
            Py_ssize_t n_nz = nonzero_words(mask, n_words, nz);
            counts_for_rows(ops, matrix.buf, n_rows, n_words, rows.buf,
                            n_rows_idx, mask, nz, n_nz,
                            out_base + s * n_rows_idx);
        }
        Py_END_ALLOW_THREADS;
        PyMem_Free(nz);
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&masks);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&matrix);
    Py_RETURN_NONE;

err_out:
    PyBuffer_Release(&out);
err_masks:
    PyBuffer_Release(&masks);
err_rows:
    PyBuffer_Release(&rows);
err_matrix:
    PyBuffer_Release(&matrix);
    return NULL;
}

PyDoc_STRVAR(
    scan_informative_doc,
    "scan_informative(matrix, n_words, mask_words, n_selected, out_rows,"
    " out_counts)\n--\n\n"
    "Full-matrix informative scan: writes the row indices and counts with\n"
    "0 < count < n_selected into the out buffers (capacity n_rows each)\n"
    "and returns how many were kept.  Releases the GIL.");

static PyObject *
scan_informative(PyObject *self, PyObject *args)
{
    PyObject *matrix_o, *mask_o, *out_rows_o, *out_counts_o;
    Py_ssize_t n_words;
    long long n_selected;
    if (!PyArg_ParseTuple(args, "OnOLOO", &matrix_o, &n_words, &mask_o,
                          &n_selected, &out_rows_o, &out_counts_o)) {
        return NULL;
    }
    Py_buffer matrix, mask, out_rows, out_counts;
    Py_ssize_t n_matrix, n_mask, n_or, n_oc;
    if (n_words <= 0) {
        PyErr_SetString(PyExc_ValueError, "n_words must be positive");
        return NULL;
    }
    if (get_words(matrix_o, &matrix, 0, "matrix", &n_matrix) != 0) {
        return NULL;
    }
    if (get_words(mask_o, &mask, 0, "mask_words", &n_mask) != 0) {
        goto err_matrix;
    }
    if (get_words(out_rows_o, &out_rows, 1, "out_rows", &n_or) != 0) {
        goto err_mask;
    }
    if (get_words(out_counts_o, &out_counts, 1, "out_counts", &n_oc) != 0) {
        goto err_out_rows;
    }
    if (n_matrix % n_words != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "matrix length not a multiple of n_words");
        goto err_out_counts;
    }
    {
        Py_ssize_t n_rows = n_matrix / n_words;
        if (check_len(n_mask, n_words, "mask_words") != 0 ||
            check_len(n_or, n_rows, "out_rows") != 0 ||
            check_len(n_oc, n_rows, "out_counts") != 0) {
            goto err_out_counts;
        }
        const repro_simd_ops *ops = g_ops;
        Py_ssize_t *nz = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)n_words);
        if (nz == NULL) {
            PyErr_NoMemory();
            goto err_out_counts;
        }
        Py_ssize_t kept;
        Py_BEGIN_ALLOW_THREADS;
        Py_ssize_t n_nz = nonzero_words(mask.buf, n_words, nz);
        kept = scan_one(ops, matrix.buf, n_rows, n_words, mask.buf,
                        (int64_t)n_selected, nz, n_nz, out_rows.buf,
                        out_counts.buf);
        Py_END_ALLOW_THREADS;
        PyMem_Free(nz);
        PyBuffer_Release(&out_counts);
        PyBuffer_Release(&out_rows);
        PyBuffer_Release(&mask);
        PyBuffer_Release(&matrix);
        return PyLong_FromSsize_t(kept);
    }

err_out_counts:
    PyBuffer_Release(&out_counts);
err_out_rows:
    PyBuffer_Release(&out_rows);
err_mask:
    PyBuffer_Release(&mask);
err_matrix:
    PyBuffer_Release(&matrix);
    return NULL;
}

PyDoc_STRVAR(
    scan_informative_many_doc,
    "scan_informative_many(matrix, n_words, masks, ns, out_rows,"
    " out_counts, out_indptr)\n--\n\n"
    "Stacked full-matrix informative scans.  masks is S stacked word\n"
    "vectors, ns the per-mask n_selected values; kept (row, count) pairs\n"
    "are appended into out_rows/out_counts (capacity S * n_rows) with\n"
    "mask i's slice at out_indptr[i]:out_indptr[i+1].  Returns the total\n"
    "kept.  One GIL release covers the whole stack.");

static PyObject *
scan_informative_many(PyObject *self, PyObject *args)
{
    PyObject *matrix_o, *masks_o, *ns_o, *out_rows_o, *out_counts_o,
        *indptr_o;
    Py_ssize_t n_words;
    if (!PyArg_ParseTuple(args, "OnOOOOO", &matrix_o, &n_words, &masks_o,
                          &ns_o, &out_rows_o, &out_counts_o, &indptr_o)) {
        return NULL;
    }
    Py_buffer matrix, masks, ns, out_rows, out_counts, indptr;
    Py_ssize_t n_matrix, n_mask_words, n_ns, n_or, n_oc, n_ip;
    if (n_words <= 0) {
        PyErr_SetString(PyExc_ValueError, "n_words must be positive");
        return NULL;
    }
    if (get_words(matrix_o, &matrix, 0, "matrix", &n_matrix) != 0) {
        return NULL;
    }
    if (get_words(masks_o, &masks, 0, "masks", &n_mask_words) != 0) {
        goto err_matrix;
    }
    if (get_words(ns_o, &ns, 0, "ns", &n_ns) != 0) {
        goto err_masks;
    }
    if (get_words(out_rows_o, &out_rows, 1, "out_rows", &n_or) != 0) {
        goto err_ns;
    }
    if (get_words(out_counts_o, &out_counts, 1, "out_counts", &n_oc) != 0) {
        goto err_out_rows;
    }
    if (get_words(indptr_o, &indptr, 1, "out_indptr", &n_ip) != 0) {
        goto err_out_counts;
    }
    if (n_matrix % n_words != 0 || n_mask_words % n_words != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "matrix/masks length not a multiple of n_words");
        goto err_indptr;
    }
    {
        Py_ssize_t n_rows = n_matrix / n_words;
        Py_ssize_t n_masks = n_mask_words / n_words;
        if (check_len(n_ns, n_masks, "ns") != 0 ||
            check_len(n_or, n_masks * n_rows, "out_rows") != 0 ||
            check_len(n_oc, n_masks * n_rows, "out_counts") != 0 ||
            check_len(n_ip, n_masks + 1, "out_indptr") != 0) {
            goto err_indptr;
        }
        const repro_simd_ops *ops = g_ops;
        Py_ssize_t *nz = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)n_words);
        if (nz == NULL) {
            PyErr_NoMemory();
            goto err_indptr;
        }
        Py_ssize_t total;
        Py_BEGIN_ALLOW_THREADS;
        total = scan_many_serial(ops, matrix.buf, n_rows, n_words, masks.buf,
                                 n_masks, ns.buf, nz, out_rows.buf,
                                 out_counts.buf, indptr.buf);
        Py_END_ALLOW_THREADS;
        PyMem_Free(nz);
        PyBuffer_Release(&indptr);
        PyBuffer_Release(&out_counts);
        PyBuffer_Release(&out_rows);
        PyBuffer_Release(&ns);
        PyBuffer_Release(&masks);
        PyBuffer_Release(&matrix);
        return PyLong_FromSsize_t(total);
    }

err_indptr:
    PyBuffer_Release(&indptr);
err_out_counts:
    PyBuffer_Release(&out_counts);
err_out_rows:
    PyBuffer_Release(&out_rows);
err_ns:
    PyBuffer_Release(&ns);
err_masks:
    PyBuffer_Release(&masks);
err_matrix:
    PyBuffer_Release(&matrix);
    return NULL;
}

PyDoc_STRVAR(and_rows_doc,
             "and_rows(matrix, n_words, rows, mask_words, out)\n--\n\n"
             "out[i] = matrix[rows[i]] & mask_words, one word vector per\n"
             "row; rows < 0 produce all-zero vectors.  The partition\n"
             "primitive (the Python layer turns each vector back into a\n"
             "big-int positive mask).  Releases the GIL.");

static PyObject *
and_rows(PyObject *self, PyObject *args)
{
    PyObject *matrix_o, *rows_o, *mask_o, *out_o;
    Py_ssize_t n_words;
    if (!PyArg_ParseTuple(args, "OnOOO", &matrix_o, &n_words, &rows_o,
                          &mask_o, &out_o)) {
        return NULL;
    }
    Py_buffer matrix, rows, mask, out;
    Py_ssize_t n_matrix, n_rows_idx, n_mask, n_out;
    if (n_words <= 0) {
        PyErr_SetString(PyExc_ValueError, "n_words must be positive");
        return NULL;
    }
    if (get_words(matrix_o, &matrix, 0, "matrix", &n_matrix) != 0) {
        return NULL;
    }
    if (get_words(rows_o, &rows, 0, "rows", &n_rows_idx) != 0) {
        goto err_matrix;
    }
    if (get_words(mask_o, &mask, 0, "mask_words", &n_mask) != 0) {
        goto err_rows;
    }
    if (get_words(out_o, &out, 1, "out", &n_out) != 0) {
        goto err_mask;
    }
    if (n_matrix % n_words != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "matrix length not a multiple of n_words");
        goto err_out;
    }
    if (check_len(n_mask, n_words, "mask_words") != 0 ||
        check_len(n_out, n_rows_idx * n_words, "out") != 0) {
        goto err_out;
    }
    {
        const repro_simd_ops *ops = g_ops;
        Py_ssize_t n_rows = n_matrix / n_words;
        Py_BEGIN_ALLOW_THREADS;
        const uint64_t *mat = matrix.buf;
        const int64_t *idx = rows.buf;
        const uint64_t *mk = mask.buf;
        uint64_t *dst = out.buf;
        for (Py_ssize_t i = 0; i < n_rows_idx; i++) {
            uint64_t *row_out = dst + i * n_words;
            int64_t r = idx[i];
            if (r < 0 || r >= n_rows) {
                memset(row_out, 0, sizeof(uint64_t) * (size_t)n_words);
                continue;
            }
            ops->and_words(mat + (Py_ssize_t)r * n_words, mk, row_out,
                           n_words);
        }
        Py_END_ALLOW_THREADS;
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&mask);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&matrix);
    Py_RETURN_NONE;

err_out:
    PyBuffer_Release(&out);
err_mask:
    PyBuffer_Release(&mask);
err_rows:
    PyBuffer_Release(&rows);
err_matrix:
    PyBuffer_Release(&matrix);
    return NULL;
}

/* ------------------------------------------------------------------ */

static PyMethodDef native_methods[] = {
    {"popcount_rows", popcount_rows, METH_VARARGS, popcount_rows_doc},
    {"popcount_rows_many", popcount_rows_many, METH_VARARGS,
     popcount_rows_many_doc},
    {"scan_informative", scan_informative, METH_VARARGS,
     scan_informative_doc},
    {"scan_informative_many", scan_informative_many, METH_VARARGS,
     scan_informative_many_doc},
    {"and_rows", and_rows, METH_VARARGS, and_rows_doc},
    {"simd_level", simd_level_fn, METH_NOARGS, simd_level_doc},
    {"available_simd_levels", available_simd_levels_fn, METH_NOARGS,
     available_simd_levels_doc},
    {"set_simd_level", set_simd_level_fn, METH_VARARGS, set_simd_level_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "_nativeext",
    "Fused AND+popcount primitives over the packed uint64 bit-matrix.",
    -1,
    native_methods,
    NULL, /* m_slots */
    NULL, /* m_traverse */
    NULL, /* m_clear */
    NULL, /* m_free */
};

PyMODINIT_FUNC
PyInit__nativeext(void)
{
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
    __builtin_cpu_init();
#endif
    /* Select the widest usable tier once at import; REPRO_SIMD overrides
     * are applied by the Python loader via set_simd_level(). */
    for (int i = N_SIMD_TIERS - 1; i >= 0; i--) {
        if (tier_usable(simd_tier_names[i])) {
            g_ops = tier_ops(simd_tier_names[i]);
            break;
        }
    }
    return PyModule_Create(&native_module);
}
