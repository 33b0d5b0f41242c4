"""Important-variable selection for high-dimensional problems.

With thousands of noise coordinates the solved shift picks up spurious
components whose squared norm inflates the estimator variance.  Restricting
the shift to a small coordinate subspace, chosen once from a pilot batch,
keeps that inflation bounded while retaining the coordinates that actually
drive the failure event.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NoSurvivors
from .meanshift import solve_optimal_shift

SELECTION_CAP = 200         # most coordinates a selection keeps


@dataclass(frozen=True)
class SubspaceSelection:
    """Ordered coordinate subset; shifts live in span{e_i : i in indices}."""

    indices: np.ndarray
    dimension: int

    @property
    def size(self):
        return int(self.indices.size)

    def embed(self, theta_sub):
        """Lift a subspace shift to full dimension, zeros off the subset."""
        theta = np.zeros(self.dimension)
        theta[self.indices] = theta_sub
        return theta


def select_important(batch, max_dim=SELECTION_CAP, energy=0.99,
                     sig_level=2.5):
    """Rank coordinates and keep the smallest prefix holding most of the mass.

    The ranking statistic is the magnitude of the plain survivor mean of
    each coordinate, whatever shift the batch was drawn under.
    Before ranking, each coordinate's statistic is soft-thresholded at
    ``sig_level`` times its own standard error: a mean that small is
    indistinguishable from zero, and keeping such coordinates only feeds
    estimation noise into the shift (each one inflates the final weight
    variance by roughly exp(1 / effective sample size)).  Coordinates are
    then added in rank order (ties broken toward lower indices) until their
    squared mass reaches ``energy`` times the total or ``max_dim`` is hit.
    Deterministic for a given batch.
    """
    if not 0.0 < energy <= 1.0:
        raise DomainError("energy threshold must lie in (0, 1]")
    if max_dim < 1:
        raise DomainError("max_dim must be at least 1")
    if batch.survivor_count == 0:
        raise NoSurvivors("no survivor in the batch")
    pts = batch.points[batch.survivors]
    weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    # einsum, not BLAS: selection runs where batches draw in row blocks, and
    # a threaded gemv would leave an OpenBLAS worker spinning on their cores
    mean = np.einsum("i,ij->j", weights, pts)
    se = np.sqrt(np.einsum("i,ij->j", weights ** 2, (pts - mean) ** 2))
    stat = np.maximum(np.abs(mean) - sig_level * se, 0.0)
    if not stat.any():
        # nothing clears the noise floor; fall back to the raw magnitudes
        stat = np.abs(mean)
    order = np.argsort(-stat, kind="stable")
    total = float(stat @ stat)
    if total > 0.0:
        cum = np.cumsum(stat[order] ** 2)
        keep = int(np.searchsorted(cum, energy * total * (1.0 - 1e-12))) + 1
    else:
        keep = batch.dimension
    keep = min(keep, int(max_dim), batch.dimension)
    return SubspaceSelection(indices=np.sort(order[:keep]),
                             dimension=batch.dimension)


def augment_selection(selection, batch, max_dim=SELECTION_CAP, sig_level=3.5):
    """Grow a selection with coordinates a fresh batch shows to matter.

    Forward selection only: coordinates are added and never removed.  The
    significance floor alone decides here (stricter than the initial pick,
    so noise does not accumulate batch after batch); the energy cut would
    let the already-established coordinates mask marginal newcomers.
    Returns the original selection when nothing new qualifies or the cap
    would be exceeded.
    """
    extra = select_important(batch, max_dim=max_dim, energy=1.0,
                             sig_level=sig_level)
    merged = np.union1d(selection.indices, extra.indices)
    if merged.size == selection.size or merged.size > max_dim:
        return selection
    return SubspaceSelection(indices=merged, dimension=selection.dimension)


def solve_shift_in_subspace(batch, selection):
    """Solve the optimal shift restricted to the selected coordinates.

    The rows' log weights carry every coordinate of the shifts they were
    drawn under, so the restricted problem is the batch on the selected
    columns.  The returned shift is full-dimensional with exact zeros off
    the subset.
    """
    if selection.dimension != batch.dimension:
        raise DomainError("selection dimension does not match the batch")
    sol = solve_optimal_shift(
        replace(batch, points=batch.points[:, selection.indices]))
    return replace(sol, theta=selection.embed(sol.theta))
