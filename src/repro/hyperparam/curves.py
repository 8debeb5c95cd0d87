"""Parametric loss curves and work-left estimation.

Real training jobs expose loss values over iterations; the paper's
profiler (Section 7) fits "a best-fit sub-linear or super-linear curve"
to those losses to estimate the work left to reach target accuracy.
We substitute a parametric power-law family that matches the empirical
shape of SGD training curves:

    loss(i) = floor + (initial - floor) * (1 + i / knee) ** (-alpha)

``alpha`` controls convergence speed — it is the quantity that differs
between "good" and "poor" hyper-parameter choices, which is exactly what
HyperBand / HyperDrive / SLAQ discriminate on.

:func:`fit_power_law` recovers the curve parameters from noisy samples
by least squares on a log transform, and
:func:`predict_iterations_to_loss` inverts a curve, which is the
work-left estimator used by the AGENT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.topology import ordered_sum


@dataclass(frozen=True)
class LossCurve:
    """A power-law training-loss curve.

    ``initial`` is the loss at iteration 0, ``floor`` the asymptotic
    loss, ``alpha`` the convergence exponent and ``knee`` the iteration
    scale at which decay sets in.
    """

    initial: float
    floor: float
    alpha: float
    knee: float = 100.0

    def __post_init__(self) -> None:
        if self.initial <= self.floor:
            raise ValueError(
                f"initial loss {self.initial} must exceed floor {self.floor}"
            )
        if self.floor < 0:
            raise ValueError(f"loss floor must be >= 0, got {self.floor}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.knee <= 0:
            raise ValueError(f"knee must be > 0, got {self.knee}")

    def loss_at(self, iteration: float) -> float:
        """Loss value after ``iteration`` iterations (clamped at 0)."""
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        decay = (1.0 + iteration / self.knee) ** (-self.alpha)
        return self.floor + (self.initial - self.floor) * decay

    def iterations_to(self, target_loss: float) -> float:
        """Iterations needed to reach ``target_loss``.

        Returns ``inf`` when the target is at or below the floor (the
        curve never reaches it), 0 when already satisfied at start.
        """
        if target_loss >= self.initial:
            return 0.0
        if target_loss <= self.floor:
            return math.inf
        ratio = (target_loss - self.floor) / (self.initial - self.floor)
        return self.knee * (ratio ** (-1.0 / self.alpha) - 1.0)

    def sample(self, iterations: Sequence[float]) -> list[float]:
        """Loss values at each requested iteration."""
        return [self.loss_at(i) for i in iterations]


def fit_power_law(
    iterations: Sequence[float],
    losses: Sequence[float],
    floor: float = 0.0,
    knee: float = 100.0,
) -> LossCurve:
    """Fit a :class:`LossCurve` to observed ``(iteration, loss)`` samples.

    Linearises the power law — ``log(loss - floor)`` is affine in
    ``log(1 + i / knee)`` — and solves the 1-D least-squares problem in
    closed form, which keeps the AGENT's bid-preparation path dependency
    free and fast.  ``floor`` and ``knee`` are treated as known (the
    profiler can sweep them); at least two distinct samples above the
    floor are required.
    """
    if len(iterations) != len(losses):
        raise ValueError("iterations and losses must have equal length")
    points = [
        (math.log1p(i / knee), math.log(loss - floor))
        for i, loss in zip(iterations, losses)
        if loss > floor and i >= 0
    ]
    if len(points) < 2:
        raise ValueError("need at least two samples above the loss floor to fit")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    n = len(points)
    mean_x = ordered_sum(xs) / n
    mean_y = ordered_sum(ys) / n
    var_x = ordered_sum((x - mean_x) ** 2 for x in xs)
    if var_x <= 1e-12:
        raise ValueError("all samples at the same iteration; cannot fit a slope")
    slope = ordered_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    intercept = mean_y - slope * mean_x
    alpha = max(1e-6, -slope)
    initial = floor + math.exp(intercept)
    if initial <= floor:
        initial = floor + 1e-9
    return LossCurve(initial=initial, floor=floor, alpha=alpha, knee=knee)


def predict_iterations_to_loss(
    iterations: Sequence[float],
    losses: Sequence[float],
    target_loss: float,
    floor: float = 0.0,
    knee: float = 100.0,
) -> float:
    """Estimate total iterations to reach ``target_loss`` from samples.

    This is the AGENT's work-left estimator: fit the observed curve,
    invert it at the target.  Returns ``inf`` when the fitted curve
    never reaches the target (the job would be classified "poor").
    """
    curve = fit_power_law(iterations, losses, floor=floor, knee=knee)
    return curve.iterations_to(target_loss)
