"""Sampling sequences: generation, counting, density fits, parity splits.

Sets here are finite, strictly increasing real sequences split into a
negative and a nonnegative half-line; a set is its points and nothing else.
The generators produce power-profile sequences gamma_j = ((j + theta_j)/D)^(1/p)
whose counting function n(r) matches D*r^p up to a bounded remainder, with
deterministic seeded jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import InsufficientDataError


@dataclass(frozen=True)
class SampledSet:
    """Finite strictly increasing real sequence split into half-lines.

    ``negative`` holds the points below 0 and ``positive`` the rest: the
    point 0, when present, belongs to the nonnegative half.  The CSV form is
    one point per line; blank lines and lines starting with ``#`` are
    skipped when read.  An infinite or NaN point raises ValueError naming it.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1:
            raise ValueError("points must be one-dimensional")
        bad = pts[~np.isfinite(pts)]
        if len(bad):
            raise ValueError(f"points must be finite, got {float(bad[0])!r}")
        if len(pts) > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("points must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def negative(self) -> np.ndarray:
        return self.points[self.points < 0]

    @property
    def positive(self) -> np.ndarray:
        return self.points[self.points >= 0]

    def counting(self, r: float) -> int:
        """Number of points with |gamma| < r (open disk)."""
        if r <= 0:
            return 0
        return int(np.count_nonzero(np.abs(self.points) < r))

    def symmetrized(self) -> "SampledSet":
        """The union of the set with its mirror image, deduplicated."""
        pts = np.unique(np.concatenate([self.points, -self.points]))
        return SampledSet(points=pts)

    def restricted(self, r_min: float, r_max: float) -> "SampledSet":
        """Points with r_min < |gamma| <= r_max."""
        m = (np.abs(self.points) > r_min) & (np.abs(self.points) <= r_max)
        return SampledSet(points=self.points[m])

    def to_csv(self) -> str:
        return "".join(f"{x:.17g}\n" for x in self.points)

    @classmethod
    def from_csv(cls, text: str) -> "SampledSet":
        pts = [float(line) for line in map(str.strip, text.splitlines())
               if line and not line.startswith("#")]
        return cls(points=np.array(sorted(pts)))


@dataclass(frozen=True)
class SmoothSpec:
    """Parameters for the power-profile generator.

    ``count`` points per requested half-line; ``jitter`` < 1/2 keeps the
    ordering and the separation bound intact.  ``halves`` is "+", "-", or "±".
    """

    p: float = 2.0
    density: float = 1.0
    count: int = 256
    jitter: float = 0.0
    seed: int = 0
    halves: str = "+"

    def __post_init__(self) -> None:
        if not 1 <= self.p < np.inf:
            raise ValueError(f"exponent p must be finite and >= 1, got {self.p}")
        if not 0 < self.density < np.inf:
            raise ValueError(f"density must be positive and finite, got {self.density}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if not 0 <= self.jitter < 0.5:
            raise ValueError(f"jitter must lie in [0, 1/2), got {self.jitter}")
        if self.halves not in ("+", "-", "±"):
            raise ValueError(f"halves must be '+', '-' or '±', got {self.halves!r}")


def generate_smooth(spec: SmoothSpec) -> SampledSet:
    """Generate gamma_j = ((j + theta_j)/D)^(1/p), j = 1..count, per half-line.

    The jitter offsets theta_j are drawn from a generator seeded with
    ``spec.seed``, so a spec always gives the same points.
    """
    rng = np.random.default_rng(spec.seed)
    j = np.arange(1, spec.count + 1, dtype=float)

    def half_points() -> np.ndarray:
        theta = rng.uniform(-spec.jitter, spec.jitter, size=spec.count) if spec.jitter > 0 else 0.0
        return ((j + theta) / spec.density) ** (1.0 / spec.p)

    parts = []
    if spec.halves in ("-", "±"):
        parts.append(-half_points()[::-1])
    if spec.halves in ("+", "±"):
        parts.append(half_points())
    return SampledSet(points=np.concatenate(parts))


def density_fit(gamma: SampledSet) -> tuple[float, float]:
    """Least-squares density estimate and boundedness diagnostic.

    Fits n(r) ~ D*r^2 + c over the point radii and reports
    (D_hat, sup_r |n(r) - D_hat * r^2|).  The intercept absorbs the O(1)
    offset during fitting but is excluded from the reported residual, which is
    the raw boundedness gauge: small iff the set really has exponent 2.
    """
    if len(gamma) < 16:
        raise InsufficientDataError(f"need >= 16 points for a density fit, got {len(gamma)}")
    radii = np.sort(np.abs(gamma.points))
    n_at = np.searchsorted(radii, radii, side="left").astype(float)
    design = np.column_stack([radii**2, np.ones_like(radii)])
    coef, *_ = np.linalg.lstsq(design, n_at, rcond=None)
    d_hat = float(coef[0])
    resid = float(np.max(np.abs(n_at - d_hat * radii**2)))
    return d_hat, resid


def half_density(points: np.ndarray) -> float:
    """Density D of n(r) ~ D r^2 on the positive points: the fit at 16 or more,
    else count / (largest point)^2 (0 when there are none)."""
    pos = np.sort(points[points > 0])
    if len(pos) >= 16:
        return density_fit(SampledSet(points=pos))[0]
    if len(pos):
        return len(pos) / pos[-1] ** 2
    return 0.0


def separation_check(gamma: SampledSet) -> float:
    """Largest d for which the separation bound gap >= d / (1 + |gamma_j|) holds.

    Per half-line in outward order, using the inner point of each gap as the
    weight; inf when no half-line holds two points.
    """
    measured = np.inf
    for half in (gamma.negative, gamma.positive):
        outward = np.sort(np.abs(half))
        if len(outward) < 2:
            continue
        gaps = np.diff(outward)
        measured = min(measured, float(np.min(gaps * (1.0 + outward[:-1]))))
    return measured


def split_parity(gamma: SampledSet) -> tuple[SampledSet, SampledSet]:
    """Even-indexed and odd-indexed subsequences, 1-based outward per half-line.

    Each part interleaves the other and carries about half the density.
    """
    even_parts, odd_parts = [], []
    for half in (gamma.negative, gamma.positive):
        order = np.argsort(np.abs(half))
        outward = half[order]
        even_parts.append(outward[1::2])  # indices 2, 4, ... (1-based)
        odd_parts.append(outward[0::2])
    return (SampledSet(points=np.sort(np.concatenate(even_parts))),
            SampledSet(points=np.sort(np.concatenate(odd_parts))))
