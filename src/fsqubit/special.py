"""Bessel functions J0, J1 and the normal quantile, bit for bit as scipy.

These are numpy transcriptions of S. L. Moshier's Cephes rational
approximations (Methods and Programs for Mathematical Functions, 1989),
the code behind ``scipy.special.j0``, ``j1`` and ``ndtri``. Coefficients,
branch points and operation order follow Cephes exactly: ``_horner`` runs
its Horner loops, and every product and quotient is taken in the same
order, so each result rounds the same way as scipy's.
The arithmetic is + - * /, correctly rounded ``sqrt``, and ``sin``,
``cos`` and ``log``. numpy's float64 ``sin`` and ``cos`` return libm's
values; its ``log`` can differ from libm in the last bit under some SIMD
dispatch levels, so ``ndtri`` takes its logs from ``math.log``, one
element at a time, on the tail elements only.
"""

from __future__ import annotations

import math

import numpy as np

_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2 / pi)
_PIO4 = 7.85398163397448309616e-1
_THPIO4 = 2.35619449019234492885e0


def _rows(*polys):
    """Coefficient rows, highest power first, zero-padded on the left to a
    common degree."""
    width = max(map(len, polys))
    return np.array([(0.0,) * (width - len(p)) + tuple(p) for p in polys])


def _horner(x, rows):
    """Each row of ``rows`` as a polynomial at 1-d ``x``, all in one pass:
    Cephes' ``polevl`` step for step. A row led by 1 is its ``p1evl``
    (1 x + c is x + c exactly), and leading zeros change no bit: the sum
    stays 0 until the first coefficient, which it then takes exactly."""
    ans = rows[:, :1]
    for c in rows.T[1:]:
        ans = ans * x + c[:, None]
    return ans


def _far(x, u, rows, shift):
    """Cephes' large-x Bessel form: (p cos(x - shift) - (5 / x) q
    sin(x - shift)) sqrt(2 / pi) / sqrt(x), with p and q ratios of the
    polynomial rows at ``u``."""
    pp, pq, qp, qq = _horner(u, rows)
    p = pp / pq
    q = qp / qq
    xn = x - shift
    return (p * np.cos(xn) - 5.0 / x * q * np.sin(xn)) * _SQ2OPI / np.sqrt(x)


# J0 on 0 <= x <= 5: (z - r1)(z - r2) R(z), z = x^2, r1 and r2 the squares
# of the first two zeros; above 5 the Hankel asymptotic form with
# rational modulus and phase corrections in 25 / x^2.
_J0_DR1 = 5.78318596294678452118e0
_J0_DR2 = 3.04712623436620863991e1
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
          -2.49248344360967716204e14, 9.70862251047306323952e15)
_J0_RQ = (4.99563147152651017219e2, 1.73785401676374683123e5,
          4.84409658339962045305e7, 1.11855537045356834862e10,
          2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2,
          1.23953371646414299388e0, 5.44725003058768775090e0,
          8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2,
          1.25352743901058953537e0, 5.47097740330417105182e0,
          8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0,
          -1.95539544257735972385e1, -9.32060152123768231369e1,
          -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (6.43178256118178023184e1, 8.56430025976980587198e2,
          3.88240183605401609683e3, 7.24046774195652478189e3,
          5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)

# J1: x (z - z1)(z - z2) R(z) on |x| <= 5, the asymptotic form above.
_J1_Z1 = 1.46819706421238932572e1
_J1_Z2 = 4.92184563216946036703e1
_J1_RP = (-8.99971225705559398224e8, 4.52228297998194034323e11,
          -7.27494245221818276015e13, 3.68295732863852883286e15)
_J1_RQ = (6.20836478118054335476e2, 2.56987256757748830383e5,
          8.35146791431949253037e7, 2.21511595479792499675e10,
          4.74914122079991414898e12, 7.84369607876235854894e14,
          8.95222336184627338078e16, 5.32278620332680085395e18)
_J1_PP = (7.62125616208173112003e-4, 7.31397056940917570436e-2,
          1.12719608129684925192e0, 5.11207951146807644818e0,
          8.42404590141772420927e0, 5.21451598682361504063e0,
          1.00000000000000000254e0)
_J1_PQ = (5.71323128072548699714e-4, 6.88455908754495404082e-2,
          1.10514232634061696926e0, 5.07386386128601488557e0,
          8.39985554327604159757e0, 5.20982848682361821619e0,
          9.99999999999999997461e-1)
_J1_QP = (5.10862594750176621635e-2, 4.98213872951233449420e0,
          7.58238284132545283818e1, 3.66779609360150777800e2,
          7.10856304998926107277e2, 5.97489612400613639965e2,
          2.11688757100572135698e2, 2.52070205858023719784e1)
_J1_QQ = (7.42373277035675149943e1, 1.05644886038262816351e3,
          4.98641058337653607651e3, 9.56231892404756170795e3,
          7.99704160447350683650e3, 2.82619278517639096600e3,
          3.36093607810698293419e2)


_J0_NEAR = _rows(_J0_RP, (1.0,) + _J0_RQ)
_J0_FAR = _rows(_J0_PP, _J0_PQ, _J0_QP, (1.0,) + _J0_QQ)
_J1_NEAR = _rows(_J1_RP, (1.0,) + _J1_RQ)
_J1_FAR = _rows(_J1_PP, _J1_PQ, _J1_QP, (1.0,) + _J1_QQ)


def j0(x):
    """Bessel function J0 of float array ``x``."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    near = x <= 5.0
    xs = x[near]
    z = xs * xs
    rp, rq = _horner(z, _J0_NEAR)
    out[near] = np.where(xs < 1e-5, 1.0 - z / 4.0,
                         (z - _J0_DR1) * (z - _J0_DR2) * rp / rq)
    xs = x[~near]
    out[~near] = _far(xs, 25.0 / (xs * xs), _J0_FAR, _PIO4)
    return out


def j1(x):
    """Bessel function J1 of float array ``x``."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.empty_like(ax)
    near = ax <= 5.0
    xs = ax[near]
    z = xs * xs
    rp, rq = _horner(z, _J1_NEAR)
    out[near] = rp / rq * xs * (z - _J1_Z1) * (z - _J1_Z2)
    xs = ax[~near]
    w = 5.0 / xs
    out[~near] = _far(xs, w * w, _J1_FAR, _THPIO4)
    return np.negative(out, out=out, where=x < 0)  # J1 is odd


# ndtri: a rational function of (y - 1/2)^2 on exp(-2) < y < 1 - exp(-2);
# in the tails x = sqrt(-2 log y) and a rational correction in 1 / x, with
# one set of coefficients for x < 8 (y > exp(-32)) and one beyond.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


_NDTRI_MID = _rows(_NDTRI_P0, (1.0,) + _NDTRI_Q0)
_NDTRI_TAIL = _rows(_NDTRI_P1, (1.0,) + _NDTRI_Q1,
                    _NDTRI_P2, (1.0,) + _NDTRI_Q2)


def _libm_log(v):
    return np.fromiter(map(math.log, v.tolist()), dtype=float, count=v.size)


def ndtri(y):
    """Standard normal quantile of uniforms ``y`` strictly inside (0, 1)."""
    y = np.asarray(y, dtype=float)
    if not np.all((y > 0.0) & (y < 1.0)):
        raise ValueError("ndtri needs uniforms strictly inside (0, 1)")
    out = np.empty_like(y)
    upper = y > 1.0 - _EXPM2
    yy = np.where(upper, 1.0 - y, y)
    mid = yy > _EXPM2
    v = yy[mid] - 0.5
    v2 = v * v
    p0, q0 = _horner(v2, _NDTRI_MID)
    out[mid] = (v + v * (v2 * p0 / q0)) * _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _libm_log(yy[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    p1, q1, p2, q2 = _horner(z, _NDTRI_TAIL)
    x1 = np.where(x < 8.0, z * p1 / q1, z * p2 / q2)
    out[tail] = np.where(upper[tail], x0 - x1, -(x0 - x1))
    return out
