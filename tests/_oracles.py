"""Independent oracles used by the test suite.

Everything here is deliberately naive: brute-force vertex enumeration for the
transportation LP, closed forms for Gaussian/reflected diffusions, and direct
series sums for the periodic kernels.  Nothing imports from mmlab.
"""

import itertools
import math

import numpy as np


def transport_vertex_value(weights_mu, weights_nu, cost):
    """Minimal transport cost by enumerating every vertex of the
    transportation polytope (basic feasible solutions = spanning trees of the
    complete bipartite support graph).  Only sensible for tiny supports."""
    a = np.asarray(weights_mu, dtype=float)
    b = np.asarray(weights_nu, dtype=float)
    c = np.asarray(cost, dtype=float)
    n, m = len(a), len(b)
    cells = list(itertools.product(range(n), range(m)))
    best = np.inf
    for basis in itertools.combinations(cells, n + m - 1):
        # union-find cycle check on the bipartite node set
        parent = list(range(n + m))

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        tree = True
        for i, j in basis:
            ru, rv = find(i), find(n + j)
            if ru == rv:
                tree = False
                break
            parent[ru] = rv
        if not tree:
            continue
        # peel leaves to solve the tree system
        flow = {}
        row_rem = a.copy()
        col_rem = b.copy()
        adj = {u: [] for u in range(n + m)}
        for i, j in basis:
            adj[i].append((n + j, (i, j)))
            adj[n + j].append((i, (i, j)))
        degree = {u: len(adj[u]) for u in range(n + m)}
        removed = set()
        stack = [u for u in range(n + m) if degree[u] == 1]
        feasible = True
        while stack:
            u = stack.pop()
            if u in removed:
                continue
            nbrs = [(v, e) for v, e in adj[u] if e not in flow]
            if not nbrs:
                removed.add(u)
                continue
            v, e = nbrs[0]
            val = row_rem[u] if u < n else col_rem[u - n]
            if val < -1e-9:
                feasible = False
                break
            flow[e] = val
            i, j = e
            row_rem[i] -= val
            col_rem[j] -= val
            removed.add(u)
            degree[v] -= 1
            if degree[v] == 1:
                stack.append(v)
        if not feasible or len(flow) != n + m - 1:
            continue
        vals = np.asarray(list(flow.values()))
        if np.any(vals < -1e-12):
            continue
        total = sum(f * c[i, j] for (i, j), f in flow.items())
        best = min(best, total)
    return best


def wasserstein_vertex(p, atoms_mu, w_mu, atoms_nu, w_nu):
    """W_p between small discrete measures via vertex enumeration."""
    A = np.atleast_2d(np.asarray(atoms_mu, dtype=float))
    B = np.atleast_2d(np.asarray(atoms_nu, dtype=float))
    if A.shape[0] == 1 and len(np.atleast_1d(w_mu)) > 1:
        A = A.T
    if B.shape[0] == 1 and len(np.atleast_1d(w_nu)) > 1:
        B = B.T
    d = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    val = transport_vertex_value(w_mu, w_nu, d ** p)
    return max(val, 0.0) ** (1.0 / p)


def gaussian_w2(sigma_a, sigma_b):
    """W_2 between centered 1-D Gaussians."""
    return abs(float(sigma_a) - float(sigma_b))


def circle_distance_reference(x, y, c):
    """Circle distance by the plain formula: |(x - y) mod c|, folded at c/2."""
    d = np.abs(np.mod(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), c))
    return np.minimum(d, c - d)


def torus_distance_reference(x, y, len1, len2):
    """Flat torus distance of (..., 2) blocks from two circle distances."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    d1 = circle_distance_reference(x[..., 0], y[..., 0], len1)
    d2 = circle_distance_reference(x[..., 1], y[..., 1], len2)
    return np.sqrt(d1 * d1 + d2 * d2)


def circle_kernel_series(t, dx, circumference, terms=2000):
    """Heat kernel on a circle by the raw eigenfunction series (generator =
    full Laplacian, so eigenvalues (2 pi k / c)^2)."""
    c = float(circumference)
    k = np.arange(1, terms + 1)
    om = (2 * np.pi * k / c) ** 2
    return (1.0 + 2.0 * np.sum(np.exp(-om * t) * np.cos(2 * np.pi * k * dx / c))) / c


def interval_kernel_series(t, x, y, a, length, terms=2000):
    """Neumann heat kernel on [a, a+L] by the cosine eigenseries."""
    L = float(length)
    k = np.arange(1, terms + 1)
    lam = (np.pi * k / L) ** 2
    cx = np.cos(np.pi * k * (x - a) / L)
    cy = np.cos(np.pi * k * (y - a) / L)
    return (1.0 + 2.0 * np.sum(np.exp(-lam * t) * cx * cy)) / L


def interval_cdf_images(t, x0, x, a, length):
    """P(X_t <= x) for reflected Brownian motion (variance 2t) on [a, a+L]
    started at x0: the free Gaussian law summed over the images x0 + 2jL and
    2a - x0 + 2jL of the reflection group, each image's mass in [a, x]."""
    L, s = float(length), math.sqrt(2.0 * t)
    reach = int(math.ceil(20.0 * s / (2.0 * L))) + 2

    def phi(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    total = 0.0
    for j in range(-reach, reach + 1):
        for image in (x0 + 2 * j * L, 2 * a - x0 + 2 * j * L):
            total += phi((x - image) / s) - phi((a - image) / s)
    return total


def ou_mean_var(a, x0, t):
    """Mean and variance of dX = -aX dt + sqrt(2) dW started at x0."""
    if a == 0:
        return x0, 2.0 * t
    return x0 * np.exp(-a * t), (1.0 - np.exp(-2.0 * a * t)) / a


def finite_transition_eigh(generator, weights, t):
    """Eigenvalues (ascending) and transition matrix exp(t L) of a generator
    in detailed balance with the weights, from one dense eigendecomposition
    of the symmetrised matrix D^{1/2} L D^{-1/2}."""
    L = np.asarray(generator, dtype=float)
    sqrt_m = np.sqrt(np.asarray(weights, dtype=float))
    s = (sqrt_m[:, None] / sqrt_m[None, :]) * L
    lam, q = np.linalg.eigh(0.5 * (s + s.T))
    return lam, ((q / sqrt_m[:, None]) * np.exp(t * lam)) @ (q * sqrt_m[:, None]).T


def graph_generator_dense(dist, weights, eps=None):
    """The epsilon-neighborhood graph generator, every one of its n^2 rates
    computed directly: Gaussian edge weights m_i m_j exp(-d^2/eps^2) kept up
    to 3 eps, scaled by 2/eps^2 and divided by m_i, the diagonal the negated
    row sum; eps defaults to twice the median nearest-neighbor distance."""
    d = np.asarray(dist, dtype=float)
    m = np.asarray(weights, dtype=float)
    n = len(m)
    if n == 1:
        return np.zeros((1, 1))
    if eps is None:
        eps = 2.0 * float(np.median(np.min(d + np.diag(np.full(n, np.inf)), axis=1)))
    w = np.outer(m, m) * np.exp(-np.square(d) / (eps * eps))
    w[d > 3 * eps] = 0.0
    np.fill_diagonal(w, 0.0)
    L = (2.0 / (eps * eps)) * (w / m[:, None])
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def mesh_cone_jacobi(coords, resolution):
    """Graph distances of the cone mesh on ``coords`` (apex first, then ring
    j at angle k as node 1 + j*resolution + k) by Jacobi Bellman-Ford: every
    sweep relaxes every directed edge at once, until a sweep changes
    nothing.  Each edge takes the length of its copy at angle 0.  Sweeps run
    from the apex and the angle-0 node of each ring; every other row is its
    ring's angle-0 row with each ring block rolled forward by its angle."""
    a = resolution
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    k = np.arange(a)
    ring = 1 + a * np.arange(a)[:, None]
    node = ring + k
    turn = ring + (k + 1) % a
    heads = np.concatenate([np.zeros((1, a), dtype=int), node, node[:-1], node[:-1]])
    tails = np.concatenate([node[:1], turn, node[1:], turn[1:]])
    lengths = np.repeat(np.linalg.norm(coords[heads[:, 0]] - coords[tails[:, 0]], axis=1), a)
    src = np.concatenate([heads.ravel(), tails.ravel()])
    dst = np.concatenate([tails.ravel(), heads.ravel()])
    order = np.argsort(dst, kind="stable")
    src, weight = src[order], np.concatenate([lengths, lengths])[order]
    starts = np.searchsorted(dst[order], np.arange(n))
    sources = np.concatenate([[0], node[:, 0]])
    reach = np.full((len(sources), n), np.inf)
    reach[np.arange(len(sources)), sources] = 0.0
    while True:
        relaxed = np.minimum(reach, np.minimum.reduceat(reach[:, src] + weight, starts, axis=1))
        if np.array_equal(relaxed, reach):
            break
        reach = relaxed
    dist = np.empty((n, n))
    dist[0] = reach[0]
    for j in range(a):
        for turned in range(a):
            row = dist[1 + j * a + turned]
            row[0] = reach[1 + j, 0]
            row[1:] = np.roll(reach[1 + j, 1:].reshape(a, a), turned, axis=1).ravel()
    return dist


def folded_normal_cdf(x, sigma):
    """CDF of |N(0, sigma^2)|."""
    from scipy.stats import norm
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.0, norm.cdf(x / sigma) - norm.cdf(-x / sigma))


def random_measure(rng, max_atoms, dim=1, spread=2.0):
    """Random discrete probability measure for property tests."""
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.normal(scale=spread, size=(n, dim))
    w = rng.random(n) + 0.05
    return atoms, w / w.sum()


def modulus_statistic_loop(times, states, T, eta, delta, distance):
    """Fraction of paths whose states at two stored times t, s <= T with
    |t - s| <= eta lie more than delta apart, scanning every lag within eta
    for this one eta.  ``distance(a, b)`` maps two state blocks of shape
    (..., d) to their distances."""
    sel = times <= T + 1e-12
    times, states = times[sel], states[:, sel]
    n_t = len(times)
    exceeded = np.zeros(len(states), dtype=bool)
    for lag in range(1, n_t):
        if times[lag] - times[0] > eta + 1e-12:
            break
        d = distance(states[:, :n_t - lag], states[:, lag:])
        exceeded |= np.any(d > delta, axis=1)
    return float(np.mean(exceeded))


def euler_maruyama_loop(grad, x0, dt, T, count, seed, noise=True, project=None,
                        guard=1e6):
    """Euler-Maruyama X_{k+1} = X_k - grad(X_k) dt + sqrt(2 dt) xi_k on the
    whole grid of multiples of dt up to T, written step by step: fresh arrays
    for the noise and the step, mirror reflection through ``project`` in two
    passes, and the per-path norm against the divergence guard at every step
    (a path past it is frozen and flagged).  The normals come from the same
    Philox stream as the sampler's, one (count, d) draw per step.  Returns
    the states, shape (count, n_times, d), and the flags."""
    from numpy.random import Generator, Philox, SeedSequence

    def confine(x):
        p = np.atleast_2d(np.asarray(project(x), dtype=float))
        mirrored = 2.0 * p - x
        p2 = np.atleast_2d(np.asarray(project(mirrored), dtype=float))
        return np.where(np.abs(mirrored - p2) > 1e-12, p2, mirrored)

    rng = Generator(Philox(SeedSequence(entropy=int(seed), spawn_key=())))
    steps = int(round(T / dt))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = len(x0)
    x = np.tile(x0, (count, 1))
    if project is not None:
        x = np.atleast_2d(np.asarray(project(x), dtype=float))
    out = np.empty((count, steps + 1, d))
    out[:, 0] = x
    flags = np.zeros(count, dtype=bool)
    alive = ~flags
    scale = np.sqrt(2.0 * dt)
    for k in range(steps):
        step = -np.asarray(grad(x), dtype=float) * dt
        if noise:
            step = step + scale * rng.standard_normal((count, d))
        xn = x + step
        if project is not None:
            xn = confine(xn)
        blown = np.linalg.norm(xn, axis=1) > guard
        newly = blown & alive
        flags |= newly
        alive = ~flags
        x = np.where(alive[:, None], xn, x)
        out[:, k + 1] = x
    return out, flags


def kernel_chain_loop(times, start, count, seed, circles=None, chain=None):
    """Kernel-chain paths drawn by full inverse-CDF searches, as the sampler
    did before its bucket tables and per-state searches.

    ``start`` is a (count, d) array of start states, or an (atoms, weights)
    pair of a discrete law drawn first with ``rng.choice``.  On a circle or a
    torus, ``circles(dt)`` gives one (density row over the grid offsets,
    grid, circumference) triple per factor; each step adds
    grid[searchsorted(cdf, u, "left")] and wraps with np.mod.  On an interval
    or a finite space, ``chain`` is (points, transition(dt)); a start goes to
    the argmin node of |points - x|, stored as that node, and a step moves to the first index
    whose row CDF exceeds u; ``transition`` is called once per step length.
    The uniforms come from the same Philox stream
    as the sampler's, one draw of ``count`` per factor and step.  Returns the
    states, shape (count, n_times, d)."""
    from numpy.random import Generator, Philox, SeedSequence

    def row_cdf(probs):
        if probs.min() < -1e-13:
            raise ValueError("negative kernel mass")
        cdf = np.cumsum(np.clip(probs, 0.0, None), axis=-1)
        return cdf / cdf[..., -1:]

    rng = Generator(Philox(SeedSequence(entropy=int(seed), spawn_key=())))
    times = np.asarray(times, dtype=float)
    if isinstance(start, tuple):
        atoms, weights = start
        x = np.asarray(atoms, dtype=float)[rng.choice(len(weights), size=count, p=weights)]
    else:
        x = np.array(start, dtype=float)
    out = np.empty((count, len(times), x.shape[1]))
    out[:, 0] = x
    if circles is not None:
        for k, dt in enumerate(np.diff(times)):
            for j, (row, grid, c) in enumerate(circles(dt)):
                cdf = row_cdf(row * (c / len(grid)))
                inc = grid[np.searchsorted(cdf, rng.random(count), side="left")]
                x[:, j] = np.mod(x[:, j] + inc, c)
            out[:, k + 1] = x
        return out
    points, transition = chain
    state = np.argmin(np.abs(points[None, :] - x[:, :1]), axis=1)
    out[:, 0, 0] = points[state]
    cdfs = {}  # each step length's row CDFs, built once
    for k, dt in enumerate(np.diff(times)):
        if dt not in cdfs:
            cdfs[dt] = row_cdf(transition(dt))
        rows = cdfs[dt][state]
        state = np.argmax(rows > rng.random(count)[:, None], axis=1)
        out[:, k + 1, 0] = points[state]
    return out
