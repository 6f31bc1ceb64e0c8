"""Sampling sequences: generation, counting, density fits, parity splits.

Sets here are finite, strictly increasing real sequences split into a
nonpositive and a nonnegative half-line.  The generators produce power-profile
sequences gamma_j = ((j + theta_j)/D)^(1/p) whose counting function n(r)
matches D*r^p up to a bounded remainder, with deterministic seeded jitter.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .fourier import InsufficientDataError


class InfeasibleTargetError(ValueError):
    """Thinning/augmentation target not reachable from the measured density."""


@dataclass(frozen=True)
class SampledSet:
    """Finite strictly increasing real sequence with declared half-lines.

    ``zero_side`` says which half-line owns the point 0 when present ("+" by
    default); all other points belong to the half matching their sign.
    """

    points: np.ndarray
    zero_side: str = "+"
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1:
            raise ValueError("points must be one-dimensional")
        if len(pts) > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("points must be strictly increasing")
        if self.zero_side not in ("+", "-"):
            raise ValueError(f"zero_side must be '+' or '-', got {self.zero_side!r}")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def negative(self) -> np.ndarray:
        if self.zero_side == "-":
            return self.points[self.points <= 0]
        return self.points[self.points < 0]

    @property
    def positive(self) -> np.ndarray:
        if self.zero_side == "-":
            return self.points[self.points > 0]
        return self.points[self.points >= 0]

    def half(self, sign: str) -> "SampledSet":
        pts = self.negative if sign == "-" else self.positive
        return SampledSet(points=pts, zero_side=self.zero_side, meta=dict(self.meta))

    def counting(self, r: float) -> int:
        """Number of points with |gamma| < r (open disk)."""
        if r <= 0:
            return 0
        return int(np.count_nonzero(np.abs(self.points) < r))

    def symmetrized(self) -> "SampledSet":
        """The union of the set with its mirror image, deduplicated."""
        pts = np.unique(np.concatenate([self.points, -self.points]))
        return SampledSet(points=pts, zero_side=self.zero_side, meta=dict(self.meta))

    def restricted(self, r_min: float, r_max: float) -> "SampledSet":
        """Points with r_min < |gamma| <= r_max."""
        m = (np.abs(self.points) > r_min) & (np.abs(self.points) <= r_max)
        return SampledSet(points=self.points[m], zero_side=self.zero_side, meta=dict(self.meta))

    def to_csv(self) -> str:
        buf = io.StringIO()
        p = self.meta.get("p", "")
        d = self.meta.get("D", "")
        seed = self.meta.get("seed", "")
        buf.write(f"# p={p} D={d} seed={seed}\n")
        for x in self.points:
            buf.write(f"{x:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SampledSet":
        meta: dict = {}
        pts = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, val = token.split("=", 1)
                        if val:
                            try:
                                meta[key] = float(val) if key != "seed" else int(val)
                            except ValueError:
                                meta[key] = val
                continue
            pts.append(float(line))
        return cls(points=np.array(sorted(pts)), meta=meta)


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
    separation: float | None = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"exponent p must be >= 1, got {self.p}")
        if self.density <= 0:
            raise ValueError(f"density must be positive, got {self.density}")
        if not 0 <= self.jitter < 0.5:
            raise ValueError(f"jitter must lie in [0, 1/2), got {self.jitter}")
        if self.halves not in ("+", "-", "±", "+-", "-+"):
            raise ValueError(f"halves must be '+', '-' or '±', got {self.halves!r}")


def generate_smooth(spec: SmoothSpec) -> SampledSet:
    """Generate gamma_j = ((j + theta_j)/D)^(1/p), j = 1..count, per half-line.

    The jitter offsets theta_j are drawn from a seeded generator and recorded
    via the seed in the output metadata, so outputs are reproducible.
    """
    rng = np.random.default_rng(spec.seed)
    j = np.arange(1, spec.count + 1, dtype=float)

    def half_points() -> np.ndarray:
        theta = rng.uniform(-spec.jitter, spec.jitter, size=spec.count) if spec.jitter > 0 else 0.0
        return ((j + theta) / spec.density) ** (1.0 / spec.p)

    parts = []
    if spec.halves in ("-", "±", "+-", "-+"):
        parts.append(-half_points()[::-1])
    if spec.halves in ("+", "±", "+-", "-+"):
        parts.append(half_points())
    pts = np.concatenate(parts)
    meta = {"p": spec.p, "D": spec.density, "seed": spec.seed, "jitter": spec.jitter}
    out = SampledSet(points=pts, meta=meta)
    if spec.separation is not None and not separation_check(out, spec.p, spec.separation):
        raise ValueError(
            f"drawn sequence violates the declared separation constant {spec.separation}")
    return out


def density_fit(gamma: SampledSet, p: float) -> tuple[float, float]:
    """Least-squares density estimate and boundedness diagnostic.

    Fits n(r) ~ D*r^p + c over the point radii and reports
    (D_hat, sup_r |n(r) - D_hat * r^p|).  The intercept absorbs the O(1)
    offset during fitting but is excluded from the reported residual, which is
    the raw boundedness gauge: small iff the set really has exponent p.
    """
    if len(gamma) < 16:
        raise InsufficientDataError(f"need >= 16 points for a density fit, got {len(gamma)}")
    radii = np.sort(np.abs(gamma.points))
    n_at = np.searchsorted(radii, radii, side="left").astype(float)
    design = np.column_stack([radii**p, np.ones_like(radii)])
    coef, *_ = np.linalg.lstsq(design, n_at, rcond=None)
    d_hat = float(coef[0])
    resid = float(np.max(np.abs(n_at - d_hat * radii**p)))
    return d_hat, resid


def half_density(points: np.ndarray) -> float:
    """Density D of n(r) ~ D r^2 on the positive points: the fit at 16 or more,
    else count / (largest point)^2 (0 when there are none)."""
    pos = np.sort(points[points > 0])
    if len(pos) >= 16:
        return density_fit(SampledSet(points=pos), 2.0)[0]
    if len(pos):
        return len(pos) / pos[-1] ** 2
    return 0.0


def separation_check(gamma: SampledSet, p: float, d: float | None = None):
    """Verify (or measure) the separation bound gap >= d * (1 + |gamma_j|)^(1-p).

    Per half-line in outward order, using the inner point of each gap as the
    weight.  With ``d`` given, returns a bool; with ``d=None`` (measuring
    mode), returns the largest d for which the bound holds.
    """
    measured = np.inf
    for half in (gamma.negative, gamma.positive):
        outward = np.sort(np.abs(half))
        if len(outward) < 2:
            continue
        gaps = np.diff(outward)
        weights = (1.0 + outward[:-1]) ** (p - 1.0)
        measured = min(measured, float(np.min(gaps * weights)))
    if d is None:
        return measured
    return bool(measured >= d)


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
    even = np.sort(np.concatenate(even_parts))
    odd = np.sort(np.concatenate(odd_parts))
    meta = dict(gamma.meta)
    return (
        SampledSet(points=even, zero_side=gamma.zero_side, meta=meta),
        SampledSet(points=odd, zero_side=gamma.zero_side, meta=meta),
    )


def _measured_half_densities(gamma: SampledSet, p: float) -> dict:
    out = {}
    for sign in ("-", "+"):
        half = gamma.half(sign)
        if len(half) >= 16:
            out[sign] = density_fit(half, p)[0]
        elif len(half) > 0:
            # crude fallback for short halves: endpoint count ratio
            r = np.max(np.abs(half.points))
            out[sign] = len(half) / r**p if r > 0 else 0.0
    return out


def thin_to_smooth(gamma: SampledSet, target_density: float, p: float = 2.0) -> SampledSet:
    """Subset with per-half density ~ target_density, keeping outward order.

    Keeps indices round(m / ratio) per half-line; identity when the target
    matches the measured density.
    """
    if target_density <= 0:
        raise InfeasibleTargetError("target density must be positive")
    densities = _measured_half_densities(gamma, p)
    kept = []
    for sign in ("-", "+"):
        half = gamma.half(sign)
        if len(half) == 0:
            continue
        d_meas = densities[sign]
        ratio = target_density / d_meas
        if ratio > 1.0 + 1e-9:
            raise InfeasibleTargetError(
                f"half {sign}: measured density {d_meas:.6g} below target {target_density:.6g}"
            )
        ratio = min(ratio, 1.0)
        outward = np.sort(np.abs(half.points))
        n = len(outward)
        m = np.arange(1, int(np.floor(n * ratio)) + 1, dtype=float)
        idx = np.unique(np.clip(np.round(m / ratio).astype(int), 1, n)) - 1
        chosen = outward[idx]
        kept.append(-chosen[::-1] if sign == "-" else chosen)
    pts = np.unique(np.concatenate(kept)) if kept else np.empty(0)
    return SampledSet(points=pts, zero_side=gamma.zero_side, meta=dict(gamma.meta))


def augment_to_smooth(gamma: SampledSet, target_density: float, p: float = 2.0) -> SampledSet:
    """Superset with per-half density ~ target_density.

    Merges a half-step-offset power profile for the missing density and nudges
    any new point that lands too close to an existing one.
    """
    densities = _measured_half_densities(gamma, p)
    merged = [gamma.points]
    for sign in ("-", "+"):
        half = gamma.half(sign)
        if len(half) == 0:
            continue
        d_meas = densities[sign]
        d_add = target_density - d_meas
        if d_add < -1e-9 * target_density:
            raise InfeasibleTargetError(
                f"half {sign}: measured density {d_meas:.6g} above target {target_density:.6g}"
            )
        if d_add <= 0:
            continue
        outward = np.sort(np.abs(half.points))
        r_max = outward[-1]
        count = int(np.floor(d_add * r_max**p - 0.5))
        if count < 1:
            continue
        m = np.arange(1, count + 1, dtype=float)
        new = ((m - 0.5) / d_add) ** (1.0 / p)
        # nudge collisions away by a fraction of the local target spacing
        for i, c in enumerate(new):
            spacing = 1.0 / (p * target_density * max(c, 1e-9) ** (p - 1.0))
            guard = 0.2 * spacing
            for _ in range(4):
                dist = np.min(np.abs(outward - new[i]))
                if dist >= guard:
                    break
                new[i] += 0.45 * spacing
        new = new[new <= r_max]
        merged.append(-new[::-1] if sign == "-" else new)
    pts = np.unique(np.concatenate(merged))
    return SampledSet(points=pts, zero_side=gamma.zero_side, meta=dict(gamma.meta))
