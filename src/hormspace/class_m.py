"""Function parameters that vary slowly at infinity.

The represented family is the constant 1 and finite products of iterated
log powers, continued by a positive constant below a cutoff so that every
member is positive and bounded (with bounded reciprocal) on compacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhiFunction",
    "constant_one",
    "log_power",
    "eval_phi",
    "eval_phi_of_exp",
    "slow_variation_defect",
    "epsilon_bound_constant",
]


def _exp_tower(k: int) -> float:
    """e tetrated k times: tower(0) = 1, tower(1) = e, tower(2) = e**e, ..."""
    v = 1.0
    for _ in range(k):
        v = math.exp(v)
    return v


@dataclass(frozen=True)
class PhiFunction:
    """A slowly varying weight refinement.

    kind
        "constant_one" or "log_power".
    exponents
        Powers (q1, ..., qk) applied to log r, loglog r, ... in order.
        Empty for the constant function.
    cutoff
        Radius at which the iterated-log formula takes over.  Below it the
        function is the constant equal to its value at the cutoff.  Must
        exceed tower(k-1) so that every iterated log is positive, and
        defaults to tower(k).
    """

    kind: str
    exponents: tuple[float, ...] = ()
    cutoff: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant_one", "log_power"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "exponents", tuple(float(q) for q in self.exponents))
        if not all(map(math.isfinite, self.exponents + (float(self.cutoff),))):
            raise ValueError("phi exponents and cutoff must be finite")
        if self.kind == "constant_one":
            if self.exponents:
                raise ValueError("constant_one takes no exponents")
            object.__setattr__(self, "cutoff", 1.0)
            return
        k = len(self.exponents)
        if k == 0:
            raise ValueError("log_power needs at least one exponent")
        if not self.cutoff or self.cutoff <= 0:
            object.__setattr__(self, "cutoff", _exp_tower(k))
        # all k iterated logs must stay strictly positive at the cutoff
        lo = _exp_tower(k - 1)
        if self.cutoff <= lo:
            raise ValueError(
                f"cutoff {self.cutoff} too small for {k} iterated logs "
                f"(needs cutoff > {lo})"
            )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "exponents": list(self.exponents),
            "cutoff": self.cutoff,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PhiFunction":
        kind = d["kind"]
        if kind == "constant_one":
            return constant_one()
        return PhiFunction(
            kind=kind,
            exponents=tuple(d.get("exponents", ())),
            cutoff=float(d.get("cutoff", 0.0) or 0.0),
        )


def constant_one() -> PhiFunction:
    """The weight that reproduces plain Sobolev behavior everywhere."""
    return PhiFunction(kind="constant_one")


def log_power(exponents, cutoff: float = 0.0) -> PhiFunction:
    """Iterated-log power weight; cutoff 0 selects the default tower(k)."""
    return PhiFunction(kind="log_power", exponents=tuple(exponents), cutoff=cutoff)


def _log_power_formula(exponents, x, of_log: bool):
    """Product of (log^(i) r)**q_i at r = x, or at r = e**x when of_log (x is
    then the first log); caller guarantees positivity."""
    acc = np.ones_like(x, dtype=float)
    # the first log is taken here, not by the caller, so it is freed as the
    # loop moves on (a caller-held copy costs one more array at the peak)
    cur = x if of_log else np.log(x)
    for i, q in enumerate(exponents):
        if i:
            cur = np.log(cur)
        if q != 0.0:
            acc = acc * cur**q
    return acc


def _eval_phi(phi: PhiFunction, x, of_log: bool):
    """phi at r = x (of_log False) or at r = e**x (of_log True).

    Below the cutoff phi is its value at the cutoff; scalars in give a
    float out.
    """
    arr = np.asarray(x, dtype=float)
    if phi.kind == "constant_one":
        out = np.ones_like(arr)
    else:
        base = float(_log_power_formula(phi.exponents, np.asarray(phi.cutoff), False))
        cut = math.log(phi.cutoff) if of_log else phi.cutoff
        safe = np.maximum(arr, cut)
        out = np.where(arr >= cut, _log_power_formula(phi.exponents, safe, of_log), base)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def eval_phi(phi: PhiFunction, r):
    """Evaluate phi at r >= 1 (scalar or array)."""
    if np.any(np.asarray(r, dtype=float) < 1.0):
        raise ValueError("phi is defined on [1, inf) only")
    return _eval_phi(phi, r, of_log=False)


def eval_phi_of_exp(phi: PhiFunction, u):
    """Evaluate phi(e**u) without forming e**u.

    Useful when e**u overflows; the first log of the argument is u itself.
    """
    if np.any(np.asarray(u, dtype=float) < 0.0):
        raise ValueError("requires u >= 0 so that e**u >= 1")
    return _eval_phi(phi, u, of_log=True)


def slow_variation_defect(phi: PhiFunction, lam: float, r_values) -> np.ndarray:
    """|phi(lam*r)/phi(r) - 1| at each r; slow variation drives the tail to 0."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    r = np.asarray(r_values, dtype=float)
    if r.size == 0:
        raise ValueError("r_values must be nonempty")
    if np.any(r < 1.0):
        raise ValueError("all r_values must be >= 1")
    if lam * r.min() < 1.0:
        raise ValueError("lam * r must stay >= 1 (phi domain)")
    return np.abs(eval_phi(phi, lam * r) / eval_phi(phi, r) - 1.0)


_EPS_SAMPLES = 2048


def epsilon_bound_constant(phi: PhiFunction, eps: float, r_max: float) -> float:
    """Smallest c >= 1 with c**-1 * r**-eps <= phi(r) <= c * r**eps on a
    geometric sample of [1, r_max]."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if r_max < 1.0:
        raise ValueError("r_max must be >= 1")
    r = np.geomspace(1.0, max(r_max, 1.0 + 1e-15), num=_EPS_SAMPLES)
    vals = eval_phi(phi, r)
    grow = r**eps
    c = max(1.0, float(np.max(vals / grow)), float(np.max(1.0 / (vals * grow))))
    return c
