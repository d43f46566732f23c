"""Path samplers and path-law statistics.

Two samplers: exact kernel-chain sampling on spaces with computable heat
kernels, from the base point or a discrete law, and Euler-Maruyama for
dX = -grad V dt + sqrt(2) dW, optionally mirror-reflected into a box, which
with zero drift is exact in law unless a mirror image lands past the
opposite face (``_confine``).  Ensembles are seeded with counter-based
(Philox) streams, so identical seeds give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .heat import circle_kernel_arc, get_kernel
from .spaces import (
    Box,
    Circle,
    EuclideanLogConcave,
    FiniteMms,
    Interval,
    PmmSpace,
    Potential,
    Torus,
    _evaluate,
)
from .transport import DiscreteMeasure

DIVERGENCE_GUARD = 1e6
KERNEL_CLIP = 1e-13


class PathError(ValueError):
    pass


def make_rng(seed: int, *key: int) -> Generator:
    return Generator(Philox(SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))))


@dataclass(frozen=True)
class PathEnsemble:
    """A seeded Monte Carlo family of paths with a common time grid.

    ``states`` has shape (count, n_times, d).  ``flags`` marks paths aborted
    by the divergence guard (their tail states are frozen at the last value).
    """

    times: np.ndarray
    states: np.ndarray
    space: Optional[PmmSpace] = None
    flags: np.ndarray = field(default=None)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise PathError("times must be strictly increasing")
        if s.ndim != 3 or s.shape[1] != len(t) or s.shape[0] < 1:
            raise PathError("states must have shape (count, n_times, d)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        if self.flags is None:
            object.__setattr__(self, "flags", np.zeros(len(s), dtype=bool))

    @property
    def count(self) -> int:
        return self.states.shape[0]

    def state_at(self, t: float) -> np.ndarray:
        return self.states[:, grid_index(self.times, t), :]


def time_grid(dt: float, T: float) -> np.ndarray:
    """The stored time grid of a sampler: the multiples of dt up to T."""
    return np.arange(int(round(T / dt)) + 1) * dt


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of time t on a stored grid (to within 1e-12)."""
    hits = np.nonzero(np.abs(times - t) <= 1e-12)[0]
    if len(hits) == 0:
        raise PathError("time %g not on the grid" % t)
    return int(hits[0])


def _initial_states(space: Optional[PmmSpace], initial, count: int,
                    rng: Generator, dim: int):
    """Starting points: the base point (``"base"``), or draws from a
    supplied discrete law."""
    if isinstance(initial, DiscreteMeasure):
        if initial.dim != dim:
            raise PathError("initial law dimension mismatch")
        idx = rng.choice(len(initial), size=count, p=initial.weights)
        return initial.atoms[idx]
    if not (isinstance(initial, str) and initial == "base"):
        raise PathError("unknown initial law %r" % (initial,))
    base = np.atleast_1d(np.asarray(space.base_point, dtype=float))
    return np.tile(base[:dim], (count, 1))


def _bucket_count(n: int) -> int:
    """Buckets of the increment sampler's u-table for an n-entry CDF: the
    first power of two >= 16 n, so that u * M and b / M are exact."""
    return 1 << (16 * n - 1).bit_length()


def _increment_sampler(kernel_arc_row: np.ndarray, grid: np.ndarray, h: float):
    """Inverse-CDF sampler over grid offsets from a kernel density row.

    A draw is grid[searchsorted(cdf, u, "left")], found through M equal
    u-buckets (``_bucket_count``): lo[b] is the index of b/M, and since the
    index is monotone in u, every u in a bucket with lo[b] == lo[b+1] has
    index lo[b].  Only the u in the other buckets, which each hold a CDF
    entry and so are at most 1/16 of [0, 1), go through the search.
    """
    probs = kernel_arc_row * h
    if probs.min() < -KERNEL_CLIP:
        raise PathError("kernel truncation produced negative mass %.2e" % probs.min())
    probs = np.clip(probs, 0.0, None)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    m = _bucket_count(len(cdf))
    lo = np.searchsorted(cdf, np.arange(m + 1) / m, side="left")
    offsets = grid[lo[:-1]]
    search = lo[:-1] != lo[1:]

    def draw(rng: Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        b = (u * m).astype(np.intp)
        inc = offsets[b]
        hit = search[b]
        inc[hit] = grid[np.searchsorted(cdf, u[hit], side="left")]
        return inc

    return draw


def _row_cdf_matrix(transition: np.ndarray) -> np.ndarray:
    if transition.min() < -KERNEL_CLIP:
        raise PathError("kernel truncation produced negative mass %.2e" % transition.min())
    p = np.clip(transition, 0.0, None)
    cdf = np.cumsum(p, axis=1)
    return cdf / cdf[:, -1:]


def _chain_step(cdf: np.ndarray, state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The next state of each path: the first index whose entry in its
    state's CDF row exceeds its u, one search per occupied state."""
    order = np.argsort(state, kind="stable")
    ranked = state[order]
    nxt = np.empty_like(state)
    for group in np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1):
        nxt[group] = np.searchsorted(cdf[state[group[0]]], u[group], side="right")
    return nxt


def _record_slots(grid: np.ndarray, record) -> tuple:
    """The times a sampler keeps, and the column of each ``grid`` time in its
    states (-1 where the time is not kept): the whole grid when ``record`` is
    None, else the ``record`` times, which must each lie on the grid, be
    nonempty and strictly increase."""
    if record is None:
        times, keep = grid, np.arange(len(grid))
    else:
        times = np.asarray(record, dtype=float)
        keep = np.asarray([grid_index(grid, t) for t in times], dtype=int)
        if len(keep) < 1 or np.any(np.diff(keep) <= 0):
            raise PathError("record times must be nonempty and strictly increasing")
    slot = np.full(len(grid), -1)
    slot[keep] = np.arange(len(keep))
    return times, slot


def _chain_states(space: PmmSpace, initial, count: int, rng: Generator, dts: np.ndarray):
    """The states of a kernel chain, shape (count, d): the start, then one
    per step of length dts[k], each step drawing in order from ``rng``."""
    if isinstance(space, (Circle, Torus)):
        # independent increments on each circle factor
        circles = [space] if isinstance(space, Circle) else space.factors()
        x = _initial_states(space, initial, count, rng, len(circles))
        samplers = {float(dt): [
            _increment_sampler(circle_kernel_arc(dt, c.grid(), c.circumference),
                               c.grid(), c.circumference / c.n_nodes) for c in circles]
            for dt in np.unique(dts)}
        yield x
        xs = x.T.copy()  # one contiguous row of states per factor
        for k, dt in enumerate(dts):
            for y, draw, c in zip(xs, samplers[float(dt)], circles):
                y += draw(rng, count)
                if k == 0:
                    # a start may lie anywhere; afterwards every state is in [0, c]
                    np.mod(y, c.circumference, out=y)
                else:
                    # y = x + offset lies in [0, 2c), where y - c is exact and
                    # is what np.mod (an exact fmod) returns; the mask times c
                    # is exactly 0 or c, and costs a ninth of np.mod
                    y -= (y >= c.circumference) * c.circumference
            yield xs.T

    elif isinstance(space, (Interval, FiniteMms)):
        # a Markov chain on the grid (atoms), one row CDF per step length
        sk = get_kernel(space)
        grid = sk.points
        x = _initial_states(space, initial, count, rng, 1)
        if isinstance(space, FiniteMms):
            state = x[:, 0].astype(int)
        else:
            state = np.argmin(np.abs(grid[None, :] - x[:, :1]), axis=1)
        cdfs = {float(dt): _row_cdf_matrix(sk.transition_matrix(dt)) for dt in np.unique(dts)}
        yield grid[state][:, None]
        for dt in dts:
            state = _chain_step(cdfs[float(dt)], state, rng.random(count))
            yield grid[state][:, None]

    elif isinstance(space, EuclideanLogConcave):
        sk = get_kernel(space)  # validates the quadratic form
        x = _initial_states(space, initial, count, rng, 1)[:, 0]
        yield x[:, None]
        for dt in dts:
            mean, var = sk._moments(dt, x)
            x = mean + np.sqrt(var) * rng.standard_normal(count)
            yield x[:, None]

    else:
        raise PathError("no kernel sampler for %s" % type(space).__name__)


def sample_kernel_chain(space: PmmSpace, initial, times: Sequence[float],
                        count: int, seed: int,
                        record: Optional[Sequence[float]] = None) -> PathEnsemble:
    """Markov-chain sampling with exact transition kernels p(dt, x, .).

    States live on the space's quadrature grid (atoms for finite spaces);
    grids are fine enough that the discretization is far below Monte Carlo
    noise at desk scale.  The chain steps along ``times``, and the ensemble
    keeps the states at the ``record`` times, each on ``times`` (all of them
    when None).  It stops at the last record time: the draws come in order
    from one stream, so each kept state is the one the whole chain has.
    ``initial`` is ``"base"`` or a ``DiscreteMeasure`` to draw the starts from.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 1 or abs(times[0]) > 1e-15:
        raise PathError("time grid must start at 0")
    if np.any(np.diff(times) <= 0):
        raise PathError("time grid must be strictly increasing")
    if count < 1:
        raise PathError("count must be >= 1")
    kept, slot = _record_slots(times, record)
    # the last kept time's index is slot's argmax: no step goes past it
    dts = np.diff(times)[:slot.argmax()]
    states = _chain_states(space, initial, count, make_rng(seed), dts)
    out = None
    for k, x in enumerate(states):
        if out is None:  # the start gives the state dimension
            out = np.empty((count, len(kept), x.shape[1]))
        if slot[k] >= 0:
            out[:, slot[k]] = x
    return PathEnsemble(kept, out, space)


def _confine(box: Box, x: np.ndarray) -> np.ndarray:
    """Bring states back into the box after an unconstrained step by
    reflecting each point through its projection, clip(x, lo, hi).  The
    mirror is the fold that makes reflected Brownian motion out of a free
    one, as long as no mirror image lands past the opposite face: so with
    zero drift a step is exact in law, up to the chance of such an
    overshoot, which needs a step longer than the box's width.  The second
    pass only projects an overshoot."""
    p = np.clip(x, box.lo, box.hi)
    p *= 2.0
    p -= x  # the mirror image 2p - x, in place
    p2 = np.clip(p, box.lo, box.hi)
    if not (p != p2).any():
        return p
    return np.where(np.abs(p - p2) > 1e-12, p2, p)


def euler_maruyama(potential: Potential, x0, dt: float, T: float, count: int,
                   seed: int, noise: bool = True,
                   domain: Optional[Box] = None,
                   record: Optional[Sequence[float]] = None) -> PathEnsemble:
    """X_{k+1} = X_k - grad V(X_k) dt + sqrt(2 dt) xi_k, optionally confined
    to a box of 1 or d coordinates after every step (``_confine``);
    ``potential.grad`` follows the batch rule of ``spaces._evaluate``.

    Paths whose norm exceeds the divergence guard are frozen and flagged.
    The guard is screened exactly: while no path is flagged and every
    coordinate lies within DIVERGENCE_GUARD/(2 sqrt d), no norm can pass the
    guard, so the per-path norms are taken only when the screen fails (a NaN
    state fails it and, as before, is never flagged).
    ``noise=False`` is the deterministic gradient-flow test hook.  The
    ensemble keeps the states at the ``record`` times, each a multiple of dt
    up to T (the whole grid when None); every step is simulated either way.
    """
    if not count >= 1:
        raise PathError("count must be >= 1")
    if not 0 < dt < np.inf:
        raise PathError("dt must be positive and finite")
    if not dt <= T < np.inf:
        raise PathError("T must be finite and >= dt")
    grid = time_grid(dt, T)
    steps = len(grid) - 1
    times, slot = _record_slots(grid, record)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = len(x0)
    if d < 1:
        raise PathError("x0 must have at least one coordinate")
    rng = make_rng(seed)
    x = np.tile(x0, (count, 1))
    if domain is not None:
        if len(domain.lo) not in (1, d):
            raise PathError("domain has %d coordinates, x0 has %d" % (len(domain.lo), d))
        if not (np.all(x0 >= domain.lo - 1e-12) and np.all(x0 <= domain.hi + 1e-12)):
            raise PathError("x0 outside the domain")
        x = np.clip(x, domain.lo, domain.hi)
    out = np.empty((count, len(times), d))
    if slot[0] >= 0:
        out[:, slot[0]] = x
    flags = np.zeros(count, dtype=bool)
    frozen = False  # whether any path is flagged
    screen = DIVERGENCE_GUARD / (2.0 * np.sqrt(d))
    scale = np.sqrt(2.0 * dt)
    # the step is formed in xn; z holds the normals, then |xn| for the screen
    xn, z = np.empty((count, d)), np.empty((count, d))
    for k in range(steps):
        np.multiply(_evaluate(potential.grad, x, (d,)), -dt, out=xn)
        if noise:
            rng.standard_normal(out=z)
            z *= scale
            xn += z
        xn += x
        if domain is not None:
            xn = _confine(domain, xn)
        if frozen or not np.abs(xn, out=z).max() <= screen:
            flags |= np.linalg.norm(xn, axis=1) > DIVERGENCE_GUARD
            frozen = bool(flags.any())
            x = np.where(flags[:, None], x, xn)
        else:
            x, xn = xn, x  # the old state's array takes the next step
        if slot[k + 1] >= 0:
            out[:, slot[k + 1]] = x
    return PathEnsemble(times, out, flags=flags)


def extract_fdd(ensemble: PathEnsemble, times: Sequence[float],
                collapse=None) -> np.ndarray:
    """The path states at the given times, optionally pushed through a
    collapse map, which gives one coordinate per point under the batch rule
    of ``spaces._evaluate``: one row per path, the per-time blocks
    concatenated, so the rows with uniform weights are the empirical joint
    law."""
    blocks = []
    for t in times:
        s = ensemble.state_at(t)
        if collapse is not None:
            s = _evaluate(collapse.map, _points(ensemble.space, s))[:, None]
        blocks.append(s)
    return np.concatenate(blocks, axis=1)


def _points(space: Optional[PmmSpace], states: np.ndarray) -> np.ndarray:
    """Stored states of shape (..., d) as points of their space: atom indices
    on a finite space, the coordinate on a circle, an interval or the line,
    and the states themselves on any other space (or none)."""
    if isinstance(space, FiniteMms):
        return states[..., 0].astype(int)
    if isinstance(space, (Circle, Interval, EuclideanLogConcave)):
        return states[..., 0]
    return states


def _pair_distance(ensemble: PathEnsemble, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between state blocks of shape (..., d), one per leading index."""
    space = ensemble.space
    if space is None:
        return np.linalg.norm(a - b, axis=-1)
    return np.asarray(space.distance(_points(space, a), _points(space, b)))


def modulus_statistic(ensemble: PathEnsemble, T: float, etas: Sequence[float],
                      delta: float) -> list:
    """For each eta, the fraction of paths with
    sup_{|t-s|<=eta, t,s<=T} d(B_t, B_s) > delta, the supremum taken over the
    stored grid (a lower-bound proxy).

    One scan for all eta, over only the paths still under delta: lag l is
    measured only on the paths that went past delta at no smaller lag, and
    the scan stops when none is left or l passes the largest eta.  Each
    path's first such lag is kept, and an eta's statistic is the fraction of
    paths whose first lag lies within eta.  The statistic is therefore
    monotone (non-decreasing) in eta by construction.  The grid step must not
    exceed min(etas)/4.
    """
    etas = [float(eta) for eta in etas]
    sel = ensemble.times <= T + 1e-12
    times = ensemble.times[sel]
    if len(times) < 2 or abs(times[0]) > 1e-12:
        raise PathError("grid does not cover [0, T]")
    if np.max(np.diff(times)) > min(etas) / 4 + 1e-12:
        raise PathError("grid step exceeds eta/4")
    n_t = len(times)
    # the times are increasing, so those up to T are a prefix: a view
    rows = ensemble.states[:, :n_t]
    # first_lag[i] is the first lag at which path i went past delta; n_t, a
    # lag no grid holds, means never.  rows holds the states of the paths todo.
    first_lag = np.full(ensemble.count, n_t)
    todo = np.arange(ensemble.count)
    offsets = times[1:] - times[0]
    for lag in range(1, int(np.sum(offsets <= max(etas) + 1e-12)) + 1):
        if len(todo) == 0:
            break
        d = _pair_distance(ensemble, rows[:, :n_t - lag], rows[:, lag:])
        hit = np.any(d > delta, axis=1)
        first_lag[todo[hit]] = lag
        todo, rows = todo[~hit], rows[~hit]
    return [float(np.mean(first_lag <= np.sum(offsets <= eta + 1e-12))) for eta in etas]


def kolmogorov_moment(ensemble: PathEnsemble, beta: float,
                      t_grid: Sequence[float], h_grid: Sequence[float]) -> dict:
    """Empirical moments E[(d /\\ 1)^beta (B_t, B_{t+h})] with standard
    errors, plus a log-log fit m(h) ~ C h^theta over the h grid."""
    if beta <= 0:
        raise PathError("beta must be positive")
    rows = []
    per_h: dict = {}
    for t in t_grid:
        a = ensemble.state_at(t)
        for h in h_grid:
            if h == 0:
                rows.append({"t": float(t), "h": 0.0, "moment": 0.0, "se": 0.0})
                continue
            b = ensemble.state_at(t + h)
            d = np.minimum(_pair_distance(ensemble, a, b), 1.0)
            vals = d ** beta
            m = float(np.mean(vals))
            se = float(np.std(vals) / np.sqrt(len(vals)))
            rows.append({"t": float(t), "h": float(h), "moment": m, "se": se})
            per_h.setdefault(float(h), []).append(m)
    hs = sorted(h for h in per_h if h > 0)
    if len(hs) >= 2 and all(np.mean(per_h[h]) > 0 for h in hs):
        lx = np.log(hs)
        ly = np.log([np.mean(per_h[h]) for h in hs])
        theta, logc = np.polyfit(lx, ly, 1)
        fit = {"theta_hat": float(theta), "C": float(np.exp(logc))}
    else:
        fit = {"theta_hat": float("nan"), "C": float("nan")}
    return {"check": "kolmogorov_moment", "beta": float(beta), "rows": rows, **fit}
