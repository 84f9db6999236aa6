r"""Matérn covariance kernels (Eq. 2 of the paper).

The Matérn family is

.. math::

    C(r; \theta) = \frac{\theta_1}{2^{\theta_3 - 1}\,\Gamma(\theta_3)}
                   \left(\frac{r}{\theta_2}\right)^{\theta_3}
                   K_{\theta_3}\!\left(\frac{r}{\theta_2}\right),

with :math:`\theta_1` the variance, :math:`\theta_2` the correlation
length, :math:`\theta_3` the smoothness, and :math:`K_\nu` the modified
Bessel function of the second kind.  The paper's *st-3D-exp* setting is
:math:`\theta = (1, 0.1, 0.5)`, for which the kernel reduces exactly to
the decaying exponential :math:`C(r) = \exp(-r / 0.1)` — medium
correlation on a rough field, the hard case for TLR compression.

Closed forms are used for half-integer smoothness (:math:`\nu \in
\{1/2, 3/2, 5/2\}`) both for speed and to avoid Bessel under/overflow;
the general branch calls :func:`scipy.special.kv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_positive_float

__all__ = ["MaternParams", "matern", "matern_exponential", "ST_3D_EXP"]


@dataclass(frozen=True)
class MaternParams:
    """Parameter vector :math:`\\theta = (\\theta_1, \\theta_2, \\theta_3)`.

    Attributes
    ----------
    variance:
        :math:`\\theta_1 > 0`, the marginal variance (kernel value at r=0).
    correlation_length:
        :math:`\\theta_2 > 0`, range parameter; larger means smoother decay.
    smoothness:
        :math:`\\theta_3 > 0`, Matérn smoothness :math:`\\nu`.
    """

    variance: float = 1.0
    correlation_length: float = 0.1
    smoothness: float = 0.5

    def __post_init__(self) -> None:
        check_positive_float("variance", self.variance)
        check_positive_float("correlation_length", self.correlation_length)
        check_positive_float("smoothness", self.smoothness)

    def as_tuple(self) -> tuple[float, float, float]:
        """Return ``(theta1, theta2, theta3)``."""
        return (self.variance, self.correlation_length, self.smoothness)


#: The paper's st-3D-exp parameterization: exp(-r / 0.1).
ST_3D_EXP = MaternParams(variance=1.0, correlation_length=0.1, smoothness=0.5)


def matern_exponential(r: np.ndarray, variance: float, length: float) -> np.ndarray:
    """Exponential kernel :math:`\\theta_1 \\exp(-r/\\theta_2)` (:math:`\\nu=1/2`)."""
    r = np.asarray(r, dtype=np.float64)
    return variance * np.exp(-r / length)


def _matern_half_integer(
    r: np.ndarray, p: MaternParams, out: np.ndarray
) -> np.ndarray | None:
    """Closed forms of Eq. 2 for nu in {0.5, 1.5, 2.5}; None otherwise.

    These are the literal half-integer specializations of Eq. 2 (Stein's
    geostatistics convention, no sqrt(3)/sqrt(5) rescaling), so they agree
    bit-for-bit in the limit with the general Bessel branch.  Each is
    evaluated into ``out`` (``r`` itself allowed) in the order the
    formula is written, so the bits do not depend on where it lands.
    """
    nu = p.smoothness
    half = [h for h in (0.5, 1.5, 2.5) if math.isclose(nu, h)]
    if not half:
        return None
    s = np.divide(r, p.correlation_length, out=out)
    if half[0] == 0.5:  # variance * exp(-s)
        np.negative(s, out=s)
        np.exp(s, out=s)
        return np.multiply(p.variance, s, out=s)
    decay = np.exp(-s)
    if half[0] == 1.5:  # variance * (1 + s) * exp(-s)
        np.add(1.0, s, out=s)
    else:  # variance * (1 + s + s*s/3) * exp(-s)
        sq3 = np.multiply(s, s)
        sq3 /= 3.0
        np.add(1.0, s, out=s)
        s += sq3
    np.multiply(p.variance, s, out=s)
    return np.multiply(s, decay, out=s)


def _matern_bessel(r: np.ndarray, p: MaternParams) -> np.ndarray:
    """Eq. 2 literally, through :func:`scipy.special.kv`."""
    nu = p.smoothness
    s = r / p.correlation_length
    out = np.full(r.shape, p.variance, dtype=np.float64)
    pos = s > 0
    if np.any(pos):
        sp = s[pos]
        coeff = p.variance / (2.0 ** (nu - 1.0) * special.gamma(nu))
        with np.errstate(over="ignore", under="ignore"):
            vals = coeff * sp**nu * special.kv(nu, sp)
        # K_nu underflows to 0 for large arguments: the correct limit is 0.
        vals = np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)
        out[pos] = vals
    return out


def matern(
    r: np.ndarray,
    params: MaternParams = ST_3D_EXP,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the Matérn kernel element-wise on a distance array.

    Parameters
    ----------
    r:
        Non-negative distances, any shape.
    params:
        Kernel parameters; defaults to the paper's st-3D-exp setting.
    out:
        A float64 array of ``r``'s shape to evaluate into — ``r`` itself
        evaluates in place; a new one when ``None``.  The result is
        bitwise the same either way.

    Returns
    -------
    numpy.ndarray
        ``C(r; theta)`` with the exact limit ``theta1`` at ``r == 0``
        (``out`` if given).

    Notes
    -----
    Half-integer smoothness (0.5, 1.5, 2.5) uses closed forms of Eq. 2 —
    e.g. :math:`\\nu = 1/2` is :math:`\\exp(-r/\\theta_2)`, matching the
    paper's statement that :math:`\\theta = (1, 0.1, 0.5)` reduces Eq. 2 to
    ``exp(-r/0.1)``.  Other smoothness values evaluate Eq. 2 literally via
    ``scipy.special.kv``.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise ConfigurationError("distances must be non-negative")
    if out is None:
        out = np.empty(r.shape)
    if _matern_half_integer(r, params, out) is None:
        out[...] = _matern_bessel(r, params)
    return out
