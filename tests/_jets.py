"""Jets of smooth maps at one point and the central finite-difference
oracle that checks them, independently of the jet engine.

`jet_eval` reads the coefficients that `taylor.eval_series` propagates;
`fd_derivative` evaluates the same callables on plain floats only.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from nullgeom import taylor as tm


class Jet:
    """Truncated Taylor expansion of a map at a point: one row of Taylor
    coefficients per output, one slot per unordered multi-index, so mixed
    partials are symmetric by construction."""

    __slots__ = ("ctx", "taylor")

    def __init__(self, ctx: tm.JetContext, taylor: np.ndarray):
        self.ctx = ctx
        self.taylor = taylor  # shape (n_outputs, n_terms)

    @property
    def value(self) -> np.ndarray:
        return self.taylor[:, 0].copy()

    @property
    def jacobian(self) -> np.ndarray:
        return self.taylor[:, self.ctx.first]

    def hessian(self) -> np.ndarray:
        return self.taylor[:, self.ctx.second] * self.ctx.second_fac


def jet_eval(map_fn, point, order: int) -> Jet:
    """Jet of a smooth map at a point, a batch of one; degree-k slots hold
    exact k-th partials, and a refused point raises its typed error.  A
    bare callable of the point's arity is wrapped in a `SmoothMap`, its
    scalar result in a one-component list."""
    if not isinstance(map_fn, tm.SmoothMap):
        fn = map_fn
        map_fn = tm.SmoothMap(lambda xs: _as_list(fn(xs)), len(point))

    def jets(points):
        outs = tm.eval_series(map_fn, points, order)
        return [Jet(outs[0].ctx, np.stack([s.c[:, b] for s in outs])) for b in range(len(points))]

    (jet,) = tm.per_sample(jets, [point])
    return jet


def _as_list(result):
    return [result] if isinstance(result, tm.Series) else result


class StencilDomainError(tm.DomainError):
    """A finite-difference stencil left the map's domain."""

    def __init__(self, stencil_point, reason: str = "outside declared domain"):
        self.stencil_point = tuple(float(c) for c in stencil_point)
        super().__init__(f"stencil point {self.stencil_point} {reason}")


@dataclass(frozen=True)
class FdScheme:
    """Central finite-difference settings.

    `step` of None means the default 1e-4 * max(1, |point|); `order` is the
    stencil accuracy; `richardson` combines estimates at h and h/2 to cancel
    the leading error term.
    """

    step: Optional[float] = None
    order: int = 2
    richardson: bool = True

    def __post_init__(self):
        if self.step is not None and not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.order not in (2, 4):
            raise ValueError("stencil accuracy must be 2 or 4")

    def resolve_step(self, point) -> float:
        if self.step is not None:
            return self.step
        return 1e-4 * max(1.0, float(np.linalg.norm(point)))


_STENCILS = {
    (1, 2): ((-1, 1), (-0.5, 0.5)),
    (1, 4): ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12)),
    (2, 2): ((-1, 0, 1), (1.0, -2.0, 1.0)),
    (2, 4): ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12)),
    (3, 2): ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    (3, 4): ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8)),
}


def _fd_estimate(map_fn, point, multi_index, h: float, acc: int):
    fn = map_fn.fn if isinstance(map_fn, tm.SmoothMap) else map_fn
    axes = [i for i, d in enumerate(multi_index) if d > 0]
    grids = [_STENCILS[(multi_index[i], acc)] for i in axes]
    total_deg = sum(multi_index)
    acc_val = 0.0
    idx = [0] * len(axes)
    while True:
        offset = np.zeros(len(point))
        weight = 1.0
        for k, i in enumerate(axes):
            offs, wts = grids[k]
            offset[i] = offs[idx[k]]
            weight *= wts[idx[k]]
        if weight != 0.0:
            pt = point + h * offset
            if isinstance(map_fn, tm.SmoothMap) and not map_fn.contains(pt[None])[0]:
                raise StencilDomainError(pt)
            try:
                val = fn([float(c) for c in pt])
            except tm.PrimitiveDomainError as err:
                raise StencilDomainError(pt, f"hit a primitive domain edge: {err}") from None
            if not np.isscalar(val) and not isinstance(val, float):
                val = np.asarray(val, dtype=float)
                if val.size != 1:
                    raise ValueError("fd_derivative expects a scalar-valued map")
                val = float(val.reshape(()))
            acc_val += weight * float(val)
        for k in range(len(axes) - 1, -1, -1):
            idx[k] += 1
            if idx[k] < len(grids[k][0]):
                break
            idx[k] = 0
        else:
            break
    return acc_val / h ** total_deg


def fd_derivative(map_fn, point, multi_index, scheme: FdScheme = FdScheme()) -> float:
    """Central-difference estimate of one partial derivative of a scalar map."""
    point = np.asarray(point, dtype=np.float64)
    multi_index = tuple(int(d) for d in multi_index)
    if len(multi_index) != point.shape[0]:
        raise ValueError("multi-index length must match the point dimension")
    deg = sum(multi_index)
    if not 1 <= deg <= tm.MAX_ORDER:
        raise ValueError(f"multi-index degree must lie in 1..{tm.MAX_ORDER}")
    if any(d < 0 for d in multi_index):
        raise ValueError("multi-index entries must be nonnegative")
    h = scheme.resolve_step(point)
    coarse = _fd_estimate(map_fn, point, multi_index, h, scheme.order)
    if not scheme.richardson:
        return coarse
    fine = _fd_estimate(map_fn, point, multi_index, h / 2.0, scheme.order)
    gain = 2.0 ** scheme.order
    return (gain * fine - coarse) / (gain - 1.0)
