/* Group-list force kernels of the "compiled" backend (Eqs. 1-2).
 *
 * One call evaluates one source's whole group-sorted pair list.  A run
 * is one source's part of one group's list: the entries
 * [run_start[r], run_start[r+1]) against the group's m targets, which
 * are the contiguous slice [group_first[g], + group_count[g]) of the
 * sorted target columns.  The loop is source-outer, target-inner (the
 * vectorised axis), with the gathers inside it; no list is written to
 * memory.  Each run is summed per target in list order into double
 * locals, then added to the accumulators, so a source adds the same
 * bits whether its runs arrive alone or cut out of a forest's list.
 *
 * Build: -O3 -fno-math-errno -ffp-contract=off, never -ffast-math: the
 * per-pair arithmetic is numpy's sequence of IEEE operations.  The f32
 * entry points do all pair arithmetic in float (sqrtf included) and
 * accumulate in double.  Returns 0, or 1 when scratch allocation fails.
 */
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

typedef int64_t i64;

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

/* Scratch for the largest group any run touches: its 4 sum columns,
 * zeroed (flush() leaves them zeroed again), then room for its 3 target
 * columns in the kernel's precision.  The largest group is in *mmax. */
static double *scratch(const i64 *group_count, const i64 *run_group,
                       i64 nruns, i64 *mmax)
{
    i64 m = 1;
    for (i64 r = 0; r < nruns; r++)
        if (group_count[run_group[r]] > m)
            m = group_count[run_group[r]];
    *mmax = m;
    return calloc(7 * (size_t)m, sizeof(double));
}

/* Add a run's sums to the group's accumulators and clear them. */
static void flush(double *s, i64 m, i64 gf, double *ax, double *ay,
                  double *az, double *ap, i64 stride)
{
    for (i64 i = 0; i < m; i++) {
        ax[(gf + i) * stride] += s[i];
        ay[(gf + i) * stride] += s[m + i];
        az[(gf + i) * stride] += s[2 * m + i];
        ap[gf + i] += s[3 * m + i];
        s[i] = s[m + i] = s[2 * m + i] = s[3 * m + i] = 0.0;
    }
}

/* A group's 3 target columns and its 4 sum columns. */
#define TARGETS(t, m) (t), (t) + (m), (t) + 2 * (m)
#define SUMS(s, m) (s), (s) + (m), (s) + 2 * (m), (s) + 3 * (m)

/* KERNELS(SFX, real, SQRT) defines eval_pc_SFX and eval_pp_SFX with
 * all pair arithmetic in `real`: each run rounds its group's targets to
 * `real` once, and each source point or cell is rounded once. */
#define KERNELS(SFX, real, SQRT)                                             \
                                                                             \
/* One source point (bx, by, bz; mass mj) on m targets.  `self` is the     \
 * target row that is this point (its 1/r is zeroed), or -1. */             \
static inline void point_##SFX(                                              \
    i64 m, const real *restrict tx, const real *restrict ty,                 \
    const real *restrict tz, real bx, real by, real bz, real mj,            \
    real e2, i64 self, double *restrict fx, double *restrict fy,             \
    double *restrict fz, double *restrict fp)                                \
{                                                                            \
    for (i64 i = 0; i < m; i++) {                                            \
        real dx = bx - tx[i], dy = by - ty[i], dz = bz - tz[i];              \
        real rinv = (real)1 / SQRT(dx * dx + dy * dy + dz * dz + e2);        \
        rinv = i == self ? (real)0 : rinv;                                   \
        real mr = mj * rinv, mr3 = mr * (rinv * rinv);                       \
        fx[i] += dx * mr3;                                                   \
        fy[i] += dy * mr3;                                                   \
        fz[i] += dz * mr3;                                                   \
        fp[i] -= mr;                                                         \
    }                                                                        \
}                                                                            \
                                                                             \
/* One cell (COM bx, by, bz; mass mj; moments q = xx yy zz xy xz yz). */    \
static inline void cell_##SFX(                                               \
    i64 m, const real *restrict tx, const real *restrict ty,                 \
    const real *restrict tz, real bx, real by, real bz, real mj,            \
    const real *restrict q, real e2, double *restrict fx,                    \
    double *restrict fy, double *restrict fz, double *restrict fp)           \
{                                                                            \
    real trq = q[0] + q[1] + q[2];                                           \
    for (i64 i = 0; i < m; i++) {                                            \
        real dx = bx - tx[i], dy = by - ty[i], dz = bz - tz[i];              \
        real rinv = (real)1 / SQRT(dx * dx + dy * dy + dz * dz + e2);        \
        real qrx = q[0] * dx + q[3] * dy + q[4] * dz;                        \
        real qry = q[3] * dx + q[1] * dy + q[5] * dz;                        \
        real qrz = q[4] * dx + q[5] * dy + q[2] * dz;                        \
        real rqr = dx * qrx + dy * qry + dz * qrz;                           \
        real rinv2 = rinv * rinv, rinv3 = rinv * rinv2;                      \
        real rinv5 = rinv3 * rinv2, rinv7 = rinv5 * rinv2;                   \
        real radial = mj * rinv3 - trq * rinv5 * (real)1.5                   \
                      + rqr * rinv7 * (real)7.5;                             \
        fx[i] += dx * radial - qrx * rinv5 * (real)3;                        \
        fy[i] += dy * radial - qry * rinv5 * (real)3;                        \
        fz[i] += dz * radial - qrz * rinv5 * (real)3;                        \
        fp[i] += -(mj * rinv) + trq * rinv3 * (real)0.5                      \
                 - rqr * rinv5 * (real)1.5;                                  \
    }                                                                        \
}                                                                            \
                                                                             \
/* Round group gf's m targets into t (x, y, z columns) once per run. */      \
static inline void group_##SFX(real *restrict t, i64 m, i64 gf,              \
                               const double *tx, const double *ty,           \
                               const double *tz)                             \
{                                                                            \
    for (i64 i = 0; i < m; i++) {                                            \
        t[i] = (real)tx[gf + i];                                             \
        t[m + i] = (real)ty[gf + i];                                         \
        t[2 * m + i] = (real)tz[gf + i];                                     \
    }                                                                        \
}                                                                            \
                                                                             \
CLONES int eval_pc_##SFX(                                                    \
    const double *tx, const double *ty, const double *tz,                    \
    const i64 *group_first, const i64 *group_count,                          \
    const double *cx, const double *cy, const double *cz, const double *cm, \
    const double *quad, i64 ncell,                                           \
    const i64 *run_start, const i64 *run_group, const i64 *entries,          \
    i64 nruns, double eps2, int quadrupole,                                  \
    double *ax, double *ay, double *az, double *ap, i64 stride)              \
{                                                                            \
    i64 mmax;                                                                \
    double *s = scratch(group_count, run_group, nruns, &mmax);               \
    if (!s) return 1;                                                        \
    real *t = (real *)(s + 4 * mmax);                                        \
    for (i64 r = 0; r < nruns; r++) {                                        \
        i64 gf = group_first[run_group[r]], m = group_count[run_group[r]];   \
        group_##SFX(t, m, gf, tx, ty, tz);                                   \
        for (i64 e = run_start[r]; e < run_start[r + 1]; e++) {              \
            i64 c = entries[e];                                              \
            if (quadrupole) {                                                \
                real q[6];                                                   \
                for (int k = 0; k < 6; k++)                                  \
                    q[k] = (real)quad[k * ncell + c];                        \
                cell_##SFX(m, TARGETS(t, m), (real)cx[c], (real)cy[c],       \
                           (real)cz[c], (real)cm[c], q, (real)eps2,          \
                           SUMS(s, m));                                      \
            } else {                                                         \
                point_##SFX(m, TARGETS(t, m), (real)cx[c], (real)cy[c],      \
                            (real)cz[c], (real)cm[c], (real)eps2, -1,        \
                            SUMS(s, m));                                     \
            }                                                                \
        }                                                                    \
        flush(s, m, gf, ax, ay, az, ap, stride);                             \
    }                                                                        \
    free(s);                                                                 \
    return 0;                                                                \
}                                                                            \
                                                                             \
CLONES int eval_pp_##SFX(                                                    \
    const double *tx, const double *ty, const double *tz,                    \
    const i64 *group_first, const i64 *group_count,                          \
    const i64 *body_first, const i64 *body_count,                            \
    const double *sx, const double *sy, const double *sz, const double *sm, \
    const i64 *run_start, const i64 *run_group, const i64 *entries,          \
    i64 nruns, double eps2, int exclude_self,                                \
    double *ax, double *ay, double *az, double *ap, i64 stride)              \
{                                                                            \
    i64 mmax;                                                                \
    double *s = scratch(group_count, run_group, nruns, &mmax);               \
    if (!s) return 1;                                                        \
    real *t = (real *)(s + 4 * mmax);                                        \
    for (i64 r = 0; r < nruns; r++) {                                        \
        i64 gf = group_first[run_group[r]], m = group_count[run_group[r]];   \
        group_##SFX(t, m, gf, tx, ty, tz);                                   \
        for (i64 e = run_start[r]; e < run_start[r + 1]; e++) {              \
            i64 b0 = body_first[entries[e]], nb = body_count[entries[e]];    \
            for (i64 b = b0; b < b0 + nb; b++)                               \
                point_##SFX(m, TARGETS(t, m), (real)sx[b], (real)sy[b],      \
                            (real)sz[b], (real)sm[b], (real)eps2,            \
                            exclude_self ? b - gf : -1, SUMS(s, m));         \
        }                                                                    \
        flush(s, m, gf, ax, ay, az, ap, stride);                             \
    }                                                                        \
    free(s);                                                                 \
    return 0;                                                                \
}

KERNELS(f64, double, sqrt)
KERNELS(f32, float, sqrtf)
