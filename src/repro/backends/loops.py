"""Loop-form Tersoff computational part (the ``python`` strategy).

A straight transliteration of the C kernel in ``_tersoff_impl.h`` into
per-interaction Python loops over the same staging buffers.  It runs
interpreted, as a slow but dependency-free oracle: the test suite runs
it on tiny systems to pin the loop algorithm against the numpy kernel
independently of any compiler.

Geometry arrays arrive pre-cast to the compute dtype; accumulator
arrays (``zeta``, ``forces``, scatter scratch, per-atom energy) are
float64, so in-place ``+=`` reproduces the numpy kernel's
"accumulate in double" discipline.  In double precision the Python
float literals below *are* the compute dtype, so the interpreted form
tracks the C kernel exactly; in single precision literal promotion
lands within the single/mixed tolerance contract — the double path is what
the hard equivalence battery pins (DESIGN.md §12).

Scatter/accumulation order is identical to the numpy kernel's
``bincount``/``segsum3`` input order.
"""

from __future__ import annotations

import numpy as np

HALF_PI = np.pi / 2.0
QUARTER_PI = np.pi / 4.0
_EXPO_CLAMP = 69.0
_TINY = 1.0e-300


def tersoff_eval_loops(
    pd, pr, ii, jj, kd, kr, kjj, tp, tk, pp, tpp, mt,
    zeta, tscr, pref, fi, sbuf, e_pair, fvec, fj, fk, forces, peratom,
    stress_p, stress_j, stress_k,
):
    P = pr.shape[0]
    T = tp.shape[0]
    N = forces.shape[0]

    zeta[:] = 0.0
    peratom[:] = 0.0
    stress_p[:] = 0.0
    stress_j[:] = 0.0
    stress_k[:] = 0.0

    # ---- triplet pass 1: zeta accumulation (input order == t order) ----
    for t in range(T):
        pt = tp[t]
        kt = tk[t]
        rij = pr[pt]
        rik = kr[kt]
        cos_t = (pd[pt, 0] * kd[kt, 0] + pd[pt, 1] * kd[kt, 1] + pd[pt, 2] * kd[kt, 2]) / (
            rij * rik
        )

        Rt = tpp[0, t]
        Dt = tpp[1, t]
        gam = tpp[2, t]
        ct = tpp[3, t]
        dt = tpp[4, t]
        ht = tpp[5, t]
        l3 = tpp[6, t]

        # f_c / f_c_d at r_ik
        if rik < Rt - Dt:
            fcik = 1.0
            fcdik = 0.0
        elif rik > Rt + Dt:
            fcik = 0.0
            fcdik = 0.0
        else:
            arg = HALF_PI * (rik - Rt) / Dt
            if arg < -HALF_PI:
                arg = -HALF_PI
            elif arg > HALF_PI:
                arg = HALF_PI
            fcik = 0.5 * (1.0 - np.sin(arg))
            fcdik = -(QUARTER_PI / Dt) * np.cos(arg)

        hcth = ht - cos_t
        c2 = ct * ct
        d2 = dt * dt
        denom = d2 + hcth * hcth
        g = gam * (1.0 + c2 / d2 - c2 / denom)
        gd = gam * (-2.0 * c2 * hcth) / (denom * denom)

        delr = rij - rik
        ld = l3 * delr
        if mt[t] == 3.0:
            expo = ld * ld * ld
            raw = 3.0 * l3 * ld * ld
        else:
            expo = ld
            raw = l3
        ex = np.exp(expo if expo < _EXPO_CLAMP else _EXPO_CLAMP)
        exld = 0.0 if expo >= _EXPO_CLAMP else raw

        contrib = fcik * g * ex
        zeta[pt] += contrib

        tscr[t, 0] = cos_t
        tscr[t, 1] = fcik
        tscr[t, 2] = fcdik
        tscr[t, 3] = g
        tscr[t, 4] = gd
        tscr[t, 5] = ex
        tscr[t, 6] = exld
        tscr[t, 7] = contrib

    # round zeta through the compute dtype (numpy: .astype(cd)); pref is
    # a compute-dtype scratch that isn't written until the pair loop, so
    # it carries the cast values in
    for p in range(P):
        pref[p] = zeta[p]

    # ---- pair terms ----
    for p in range(P):
        r = pr[p]
        Rp = pp[0, p]
        Dp = pp[1, p]
        A = pp[2, p]
        lam1 = pp[3, p]
        B = pp[4, p]
        lam2 = pp[5, p]
        beta = pp[6, p]
        nn = pp[7, p]
        c1 = pp[8, p]
        c2v = pp[9, p]
        c3 = pp[10, p]
        c4 = pp[11, p]

        if r < Rp - Dp:
            fcij = 1.0
            fcdij = 0.0
        elif r > Rp + Dp:
            fcij = 0.0
            fcdij = 0.0
        else:
            arg = HALF_PI * (r - Rp) / Dp
            if arg < -HALF_PI:
                arg = -HALF_PI
            elif arg > HALF_PI:
                arg = HALF_PI
            fcij = 0.5 * (1.0 - np.sin(arg))
            fcdij = -(QUARTER_PI / Dp) * np.cos(arg)

        fr = A * np.exp(-lam1 * r)
        frd = -lam1 * fr
        fa = -B * np.exp(-lam2 * r)
        fad = -lam2 * fa

        z = pref[p]
        tmp = beta * z
        tmp_safe = tmp if tmp > _TINY else _TINY
        if tmp > c1:
            bij = 1.0 / np.sqrt(tmp_safe)
            bijd = beta * (-0.5 / (tmp_safe * np.sqrt(tmp_safe)))
        elif tmp > c2v:
            bij = (1.0 - np.power(tmp_safe, -nn) / (2.0 * nn)) / np.sqrt(tmp_safe)
            bijd = beta * (
                -0.5
                / (tmp_safe * np.sqrt(tmp_safe))
                * (1.0 - (1.0 + 0.5 / nn) * np.power(tmp_safe, -nn))
            )
        elif tmp < c4:
            bij = 1.0
            bijd = 0.0
        elif tmp < c3:
            bij = 1.0 - np.power(tmp_safe, nn) / (2.0 * nn)
            bijd = -0.5 * beta * np.power(tmp_safe, nn - 1.0)
        else:
            # derivative via pow(1+x, -1-q) == pow(1+x, -q)/(1+x): halves
            # the pow traffic on the dominant branch, ~1 ULP deviation
            # that only feeds the norm-bounded force/stress contract
            zeta_safe = z if z > _TINY else _TINY
            tmp_n = np.power(tmp_safe, nn)
            bij = np.power(1.0 + tmp_n, -1.0 / (2.0 * nn))
            bijd = -0.5 * (bij / (1.0 + tmp_n)) * tmp_n / zeta_safe

        e = 0.5 * fcij * (fr + bij * fa)
        dE = 0.5 * (fcdij * (fr + bij * fa) + fcij * (frd + bij * fad))
        fp = -dE / r

        e_pair[p] = e
        pref[p] = 0.5 * fcij * fa * bijd
        fvec[p, 0] = fp * pd[p, 0]
        fvec[p, 1] = fp * pd[p, 1]
        fvec[p, 2] = fp * pd[p, 2]
        peratom[ii[p]] += e
        # pair virial, einsum("ia,ib->ab") accumulation order over p
        for a in range(3):
            for c in range(3):
                stress_p[a, c] += pd[p, a] * fvec[p, c]

    # ---- triplet pass 2: zeta-derivative force terms ----
    for t in range(T):
        pt = tp[t]
        kt = tk[t]
        cos_t = tscr[t, 0]
        fcik = tscr[t, 1]
        fcdik = tscr[t, 2]
        g = tscr[t, 3]
        gd = tscr[t, 4]
        ex = tscr[t, 5]
        exld = tscr[t, 6]
        contrib = tscr[t, 7]
        rij = pr[pt]
        rik = kr[kt]
        pre = pref[pt]
        crij = cos_t / rij
        crik = cos_t / rik
        fcgdex = fcik * gd * ex
        aj = contrib * exld
        ak = fcdik * g * ex - contrib * exld
        for c in range(3):
            hij = pd[pt, c] / rij
            hik = kd[kt, c] / rik
            dcj = hik / rij - crij * hij
            dck = hij / rik - crik * hik
            dzj = aj * hij + fcgdex * dcj
            dzk = ak * hik + fcgdex * dck
            dzi = -(dzj + dzk)
            fi[t, c] = pre * dzi
            fj[t, c] = pre * dzj
            fk[t, c] = pre * dzk
        # triplet virial terms, same einsum accumulation order over t
        for a in range(3):
            for c in range(3):
                stress_j[a, c] += pd[pt, a] * fj[t, c]
                stress_k[a, c] += kd[kt, a] * fk[t, c]

    # ---- force scatter: replay the segsum3 passes in numpy order ----
    forces[:] = 0.0

    sbuf[:] = 0.0
    for p in range(P):
        for c in range(3):
            sbuf[ii[p], c] += fvec[p, c]
    for a in range(N):
        for c in range(3):
            forces[a, c] -= sbuf[a, c]

    sbuf[:] = 0.0
    for p in range(P):
        for c in range(3):
            sbuf[jj[p], c] += fvec[p, c]
    for a in range(N):
        for c in range(3):
            forces[a, c] += sbuf[a, c]

    if T > 0:
        sbuf[:] = 0.0
        for t in range(T):
            for c in range(3):
                sbuf[ii[tp[t]], c] += fi[t, c]
        for a in range(N):
            for c in range(3):
                forces[a, c] -= sbuf[a, c]

        sbuf[:] = 0.0
        for t in range(T):
            for c in range(3):
                sbuf[jj[tp[t]], c] += fj[t, c]
        for a in range(N):
            for c in range(3):
                forces[a, c] -= sbuf[a, c]

        sbuf[:] = 0.0
        for t in range(T):
            for c in range(3):
                sbuf[kjj[tk[t]], c] += fk[t, c]
        for a in range(N):
            for c in range(3):
                forces[a, c] -= sbuf[a, c]
