"""Force kernels implementing Eqs. (1)-(2) of the paper.

With ``r = r_j - r_i`` (pointing from target *i* to source *j*) and the
softened distance ``|r| = sqrt(r.r + eps^2)``:

particle-particle (monopole)::

    phi_i += -m_j / |r|
    a_i   +=  m_j r / |r|^3

particle-cell (monopole + quadrupole, Q the 3x3 symmetric second-moment
tensor of the cell about its COM)::

    phi_i += -m_j/|r| + tr(Q)/(2|r|^3) - 3 r^T Q r / (2 |r|^5)
    a_i   +=  m_j r/|r|^3 - 3 tr(Q) r/(2|r|^5) - 3 Q r/|r|^5
              + 15 (r^T Q r) r / (2 |r|^7)

The kernels take pre-formed separations and return per-pair
contributions, which callers accumulate (see ``treewalk``).  This
mirrors the GPU organisation where the interaction list is evaluated on
the fly and never stored in off-chip memory.

Each kernel exists in two forms: the original allocating form
(``pp_interactions`` / ``pc_interactions``) on flat 1-D pair arrays, and
an in-place workspace form (``pp_interactions_ws`` /
``pc_interactions_ws``) whose every ufunc writes into caller-provided
scratch via ``out=`` -- the register-resident evaluation the paper
credits for its single-GPU efficiency, transposed to numpy.  The
workspace forms write only into the separations and the scratch, never
into the mass or quadrupole operands, so those may be ``(k,)`` rows
broadcast against an ``(m, k)`` tile of separations: one group's
particles against the list they share.  They accept float32 buffers
(``SimulationConfig.precision``), matching the paper's single-precision
GPU kernels; accumulation back into the per-particle sums stays float64
(see ``treewalk``).
"""

from __future__ import annotations

import numpy as np


def pp_interactions(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                    m: np.ndarray, eps2: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Particle-particle kernel on pre-formed separations ``r_j - r_i``.

    Returns per-pair (ax, ay, az, phi) contributions to the target.
    """
    r2 = dx * dx + dy * dy + dz * dz + eps2
    # Self-pairs at eps = 0 produce inf * 0; callers zero those entries
    # (see evaluate_pp_pairs), so silence the transient warnings.
    with np.errstate(divide="ignore", invalid="ignore"):
        rinv = 1.0 / np.sqrt(r2)
        mrinv = m * rinv
        mrinv3 = mrinv * rinv * rinv
        return mrinv3 * dx, mrinv3 * dy, mrinv3 * dz, -mrinv


def pc_interactions(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                    m: np.ndarray, quad: np.ndarray | None, eps2: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Particle-cell kernel with quadrupole corrections.

    Parameters
    ----------
    dx, dy, dz:
        Separations ``com_cell - pos_target`` per pair.
    m:
        Cell masses per pair.
    quad:
        (n, 6) packed quadrupole components (xx, yy, zz, xy, xz, yz),
        or None for a monopole-only cell expansion.  The monopole branch
        is the p-p arithmetic on COM separations -- 23 flops, not the
        65-flop quadrupole kernel fed a zero tensor.
    eps2:
        Softening squared (applied exactly as in the p-p kernel).

    Returns per-pair (ax, ay, az, phi).
    """
    if quad is None:
        return pp_interactions(dx, dy, dz, m, eps2)
    qxx, qyy, qzz, qxy, qxz, qyz = (quad[:, k] for k in range(6))

    r2 = dx * dx + dy * dy + dz * dz + eps2
    rinv = 1.0 / np.sqrt(r2)
    rinv2 = rinv * rinv
    rinv3 = rinv * rinv2
    rinv5 = rinv3 * rinv2
    rinv7 = rinv5 * rinv2

    trq = qxx + qyy + qzz

    # Q r (matrix-vector, symmetric packed form).
    qrx = qxx * dx + qxy * dy + qxz * dz
    qry = qxy * dx + qyy * dy + qyz * dz
    qrz = qxz * dx + qyz * dy + qzz * dz
    rqr = dx * qrx + dy * qry + dz * qrz

    phi = -m * rinv + 0.5 * trq * rinv3 - 1.5 * rqr * rinv5

    # Radial coefficient collects the three isotropic terms of Eq. (2).
    radial = m * rinv3 - 1.5 * trq * rinv5 + 7.5 * rqr * rinv7
    ax = radial * dx - 3.0 * qrx * rinv5
    ay = radial * dy - 3.0 * qry * rinv5
    az = radial * dz - 3.0 * qrz * rinv5
    return ax, ay, az, phi


def pp_interactions_ws(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                       m: np.ndarray, eps2: float,
                       r2: np.ndarray, tmp: np.ndarray,
                       self_pairs=None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """In-place p-p kernel: allocation-free workspace form.

    ``dx``/``dy``/``dz``/``r2``/``tmp`` are same-shape, same-dtype
    scratch owned by the caller; ``dx``/``dy``/``dz`` are *consumed* and
    alias (ax, ay, az) on return, ``tmp`` holds phi.  ``m`` is only
    read, so it may be any operand that broadcasts against the
    separations -- the tile evaluator passes one ``(k,)`` row of source
    masses for an ``(m, k)`` tile.

    ``self_pairs`` is an index into the separations (anything valid in
    ``r2[self_pairs]``) naming the pairs of a particle with itself:
    their ``1/r`` is zeroed before it is used, which removes them from
    all four outputs and, at ``eps = 0``, replaces the ``1/0`` they would
    otherwise feed into the products.
    """
    np.multiply(dx, dx, out=r2)
    np.multiply(dy, dy, out=tmp)
    r2 += tmp
    np.multiply(dz, dz, out=tmp)
    r2 += tmp
    if eps2 != 0.0:
        r2 += eps2
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(r2, out=r2)
        np.divide(1.0, r2, out=r2)          # r2 now holds rinv
        rinv = r2
        if self_pairs is not None:
            rinv[self_pairs] = 0.0
        np.multiply(m, rinv, out=tmp)       # tmp now holds mrinv
        np.multiply(rinv, rinv, out=r2)
        np.multiply(tmp, r2, out=r2)        # r2 now holds mrinv3
        np.multiply(dx, r2, out=dx)
        np.multiply(dy, r2, out=dy)
        np.multiply(dz, r2, out=dz)
        np.negative(tmp, out=tmp)           # phi
    return dx, dy, dz, tmp


def pc_interactions_ws(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                       m: np.ndarray, quad: tuple[np.ndarray, ...] | None,
                       eps2: float,
                       r2: np.ndarray, tmp: np.ndarray,
                       trq: np.ndarray, qrx: np.ndarray,
                       qry: np.ndarray, qrz: np.ndarray,
                       scratch: tuple[np.ndarray, ...] | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """In-place p-c kernel: workspace form, broadcast-safe.

    ``dx``/``dy``/``dz`` are consumed and alias (ax, ay, az) on return;
    ``r2``/``tmp``/``qrx``/``qry``/``qrz`` and the four ``scratch``
    buffers (phi is returned in one of them) are scratch of the
    separations' shape and dtype.  ``m`` and the 6-tuple ``quad`` (xx,
    yy, zz, xy, xz, yz; None for the monopole branch) are only read and
    may broadcast against the separations -- ``(k,)`` rows for an
    ``(m, k)`` tile -- with ``trq`` scratch of *their* shape receiving
    ``tr Q``.

    Without ``scratch`` the four buffers are allocated here, the one
    allocating path of this kernel: the tile evaluator never takes it,
    callers holding only the positional buffers do (repeated calls get
    back from the allocator the block the previous call freed).
    """
    if quad is None:
        return pp_interactions_ws(dx, dy, dz, m, eps2, r2, tmp)
    qxx, qyy, qzz, qxy, qxz, qyz = quad
    rqr, rinv2, phi, radial = scratch if scratch is not None \
        else np.empty((4,) + dx.shape, dtype=dx.dtype)

    np.multiply(dx, dx, out=r2)
    np.multiply(dy, dy, out=tmp)
    r2 += tmp
    np.multiply(dz, dz, out=tmp)
    r2 += tmp
    if eps2 != 0.0:
        r2 += eps2
    np.sqrt(r2, out=r2)
    np.divide(1.0, r2, out=r2)              # rinv
    rinv = r2

    np.add(qxx, qyy, out=trq)
    trq += qzz

    # Q r
    np.multiply(qxx, dx, out=qrx)
    np.multiply(qxy, dy, out=tmp)
    qrx += tmp
    np.multiply(qxz, dz, out=tmp)
    qrx += tmp
    np.multiply(qxy, dx, out=qry)
    np.multiply(qyy, dy, out=tmp)
    qry += tmp
    np.multiply(qyz, dz, out=tmp)
    qry += tmp
    np.multiply(qxz, dx, out=qrz)
    np.multiply(qyz, dy, out=tmp)
    qrz += tmp
    np.multiply(qzz, dz, out=tmp)
    qrz += tmp

    np.multiply(dx, qrx, out=rqr)
    np.multiply(dy, qry, out=tmp)
    rqr += tmp
    np.multiply(dz, qrz, out=tmp)
    rqr += tmp

    # The odd powers of 1/r climb in place through r2 (rinv -> rinv3 ->
    # rinv5 -> rinv7); every term is taken while its power is current.
    np.multiply(m, rinv, out=phi)
    np.negative(phi, out=phi)
    np.multiply(rinv, rinv, out=rinv2)
    rinv3 = np.multiply(rinv, rinv2, out=r2)
    np.multiply(trq, rinv3, out=tmp)
    tmp *= 0.5
    phi += tmp
    np.multiply(m, rinv3, out=radial)

    rinv5 = np.multiply(rinv3, rinv2, out=r2)
    np.multiply(rqr, rinv5, out=tmp)
    tmp *= 1.5
    phi -= tmp
    np.multiply(trq, rinv5, out=tmp)
    tmp *= 1.5
    radial -= tmp
    qrx *= rinv5
    qrx *= 3.0
    qry *= rinv5
    qry *= 3.0
    qrz *= rinv5
    qrz *= 3.0

    rinv7 = np.multiply(rinv5, rinv2, out=r2)
    np.multiply(rqr, rinv7, out=tmp)
    tmp *= 7.5
    radial += tmp

    np.multiply(dx, radial, out=dx)
    dx -= qrx
    np.multiply(dy, radial, out=dy)
    dy -= qry
    np.multiply(dz, radial, out=dz)
    dz -= qrz
    return dx, dy, dz, phi


def point_forces_on_targets(targets: np.ndarray, sources: np.ndarray,
                            source_mass: np.ndarray, eps2: float,
                            backend="numpy") -> tuple[np.ndarray, np.ndarray]:
    """All-pairs forces of point sources on targets (no self-exclusion).

    Dense helper used by tests and the velocity/potential machinery of
    the initial-condition generator.  Dispatches through the compute
    backend registry (``backend`` a name or instance, default the NumPy
    reference whose chunked loop is warning-clean at eps = 0).  Returns
    (acc (n,3), phi (n,)).
    """
    from .backends import get_backend
    return get_backend(backend).point_forces(targets, sources,
                                             source_mass, eps2)
