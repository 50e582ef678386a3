"""Shared immersion and metric builders for the geometry test-suite."""

import numpy as np

from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.immersion import MetricChart
from nullgeom.scenes import (
    cylinder_immersion,
    grw_graph,
    hxr_immersion,
    marginal_height_profile,
    psi_f_desitter,
    psi_f_minkowski,
    slice_immersion,
)

__all__ = [
    "psi_f_minkowski",
    "slice_immersion",
    "psi_f_desitter",
    "cylinder_immersion",
    "hxr_immersion",
    "grw_graph",
    "marginal_height_profile",
    "sphere_box",
    "sample_box",
    "random_metric_chart",
    "random_positive_field",
    "inner_at",
]


def sphere_box(n, pad=0.5):
    """Axis bounds keeping sphere-chart angles clear of their singular edges."""
    return tuple(
        (pad, np.pi - pad) if i < n - 1 else (-np.pi + pad, np.pi - pad)
        for i in range(n)
    )


def sample_box(rng, box, count):
    return [
        np.array([rng.uniform(lo, hi) for lo, hi in box]) for _ in range(count)
    ]


def random_metric_chart(rng, n):
    """Smooth SPD metric chart: g = L^T L, L a sinusoidal perturbation of I."""
    amp = rng.uniform(0.05, 0.15, size=(n, n))
    freq = rng.uniform(0.4, 1.2, size=(n, n, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))

    def metric(coords):
        l = [
            [
                (1.0 if i == j else 0.0)
                + amp[i, j] * tm.sin(tm.dot(freq[i, j], coords) + phase[i, j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        return [
            [sum(l[k][i] * l[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    return MetricChart(metric=metric, dim=n, name="random")


def random_positive_field(rng, n):
    """A smooth scalar field bounded away from zero, for conformal factors."""
    amp = rng.uniform(0.2, 0.45)
    freq = rng.uniform(0.4, 1.2, size=n)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    floor = rng.uniform(1.0, 1.6)

    def lam(coords):
        return floor + amp * tm.sin(tm.dot(freq, coords) + phase)

    return lam


def inner_at(model, p, v, w):
    """<v, w> at the point p, through the fiber scale of its time."""
    return st.ambient_inner(model, st.fiber_scale(model, p[0]), v, w)
