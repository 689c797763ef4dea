"""Lloyd's k-means with k-means++ seeding, plus principal axes for PCA.

All restarts draw from one seeded stream (``_PCG64``, the draws of
``np.random.default_rng(seed)``), so a (points, k, seed) triple fixes the
result exactly.

A call takes one of two paths, chosen by the shape of its n x d points,
and one driver in ``kmeans`` runs the restarts of either. With n >= d,
which covers every spectral embedding (d = K <= n), each k-means++
distance and each Lloyd step works on the points themselves
(``_PointSpace``). With n < d, as in raw k-means on the 4096-d features,
the n x n Gram G = X X^T, no larger than the points, is formed once and
every restart works on it (``_GramSpace``): a squared distance to the mean
of a set of rows is a sum of Gram entries. Each decision the Gram path
makes from approximate values is certified against a proven rounding bound
or made by the kernels of the points path, and the winner's centers and
inertia come from its final labels by those kernels, so both paths return
the same result bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError

# bytes of one block of rows in a seeding distance computation; small
# enough that the block's difference and square stay in cache
_SEED_BLOCK_BYTES = 1 << 18
_EPS = float(np.finfo(np.float64).eps)
# the Gram path's distance bound in units of (d + n + 2) eps times the
# largest squared norm: about twice what ``_GramSpace`` proves
_GRAM_SLACK = 16.0
# k-means++ restarts per call, and Lloyd steps per restart
_N_INIT = 10
_MAX_ITER = 300


@dataclass(frozen=True)
class KMeansResult:
    """The winning restart: its labels, their means and inertia, its Lloyd
    step count and whether its labels converged."""

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int
    converged: bool


class _SeedDistances:
    """The k-means++ distance vectors of one ``kmeans`` call, by drawn row.

    ``self(r)`` is ``((points - points[r]) ** 2).sum(axis=1)`` bit for bit.
    Centers are data rows, so each drawn row's vector is computed once and
    the restarts share it: ``table`` holds one vector per drawn row, at most
    ``min(n, 10 k)`` of them, and ``slot`` maps a row to its vector.

    A vector is computed in blocks of consecutive C rows, like those of that
    temporary, in one reused buffer, so numpy sums each row in the same order.
    """

    def __init__(self, points: np.ndarray, capacity: int):
        n, d = points.shape
        self.points = points
        self.table = np.empty((capacity, n))
        self.slot = np.full(n, -1)
        self.count = 0
        self.block_rows = max(1, _SEED_BLOCK_BYTES // (8 * max(d, 1)))
        self.buf = np.empty(self.block_rows * d)

    def __call__(self, row: int) -> np.ndarray:
        if self.slot[row] < 0:
            self._fill(row, self.table[self.count])
            self.slot[row] = self.count
            self.count += 1
        return self.table[self.slot[row]]

    def _fill(self, row: int, out: np.ndarray) -> None:
        """Write the squared distances of every row to row ``row`` into ``out``."""
        center = self.points[row]
        for lo in range(0, out.size, self.block_rows):
            rows = self.points[lo:lo + self.block_rows]
            block = self.buf[:rows.size].reshape(rows.shape)
            np.subtract(rows, center, out=block)
            np.square(block, out=block)
            block.sum(axis=1, out=out[lo:lo + len(rows)])


def _cdf(p: np.ndarray) -> np.ndarray:
    """The normalized running sum of ``p`` that a draw searches."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(p: np.ndarray, u: float) -> int:
    """The index ``Generator.choice(p.size, p=p)`` picks when the one
    ``random()`` it draws is ``u``: the first whose cdf entry exceeds u.

    Both k-means paths draw through this, so they pick alike whatever a
    numpy release does inside ``choice``.
    """
    return int(_cdf(p).searchsorted(u, side="right"))


# SeedSequence's hash constants, and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` of one 32-bit word, from the starting
    constant ``const``, which each call advances by ``mult``."""
    def hashed(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashed


def _mix(x: int, y: int) -> int:
    x = (_MIX_L * x - _MIX_R * y) & _M32
    return x ^ x >> 16


class _PCG64:
    """The two draws k-means makes, ``random()`` and ``integers(n)`` for
    1 <= n <= 2**32, equal bit for bit to those of
    ``np.random.default_rng(seed)``, without importing ``numpy.random``.

    The seed's 32-bit words are hashed into a pool of four as
    ``SeedSequence(seed)`` hashes them, and the pool into the 128-bit state
    and increment of PCG64 (O'Neill 2014): a 128-bit LCG whose XSL-RR
    output gives 64 bits a step. ``random()`` is the top 53 bits of one
    output. ``integers(n)`` uses Lemire's (2019) method on 32-bit halves of
    the outputs, low half first; a high half waits for the next such draw.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)  # a numpy integer, as default_rng takes
        words = [seed & _M32]
        while seed > _M32:
            seed >>= 32
            words.append(seed & _M32)
        hashed = _hasher(_INIT_A, _MULT_A)
        pool = [hashed(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashed(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashed(word))
        # SeedSequence.generate_state(4, np.uint64), and PCG64's srandom
        hashed = _hasher(_INIT_B, _MULT_B)
        out = [hashed(pool[i % 4]) for i in range(8)]
        w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self.state = ((self.inc + (w[0] << 64 | w[1])) * _PCG_MULT + self.inc) & _M128
        self.half = None

    def _next64(self) -> int:
        self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (self.state >> 64 ^ self.state) & _M64
        rot = self.state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        x = self._next64()
        self.half = x >> 32
        return x & _M32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        if n == 1 << 32:
            return self._next32()
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return m >> 32


def _next_row(d2: np.ndarray, rng: _PCG64) -> int:
    """The next k-means++ row for the distances ``d2`` to the rows drawn so
    far: drawn in proportion to them, or uniformly when all are zero."""
    total = d2.sum()
    if total > 0:
        return _draw(d2 / total, rng.random())
    return rng.integers(d2.size)


def _plus_plus_init(k: int, rng: _PCG64,
                    seeds: _SeedDistances) -> np.ndarray:
    """The rows k-means++ seeding draws: each next center is drawn with
    probability proportional to squared distance from the centers chosen so far."""
    rows = np.empty(k, dtype=np.intp)
    rows[0] = rng.integers(seeds.slot.size)
    d2 = seeds(rows[0])
    for i in range(1, k):
        rows[i] = _next_row(d2, rng)
        d2 = np.minimum(d2, seeds(rows[i]))
    return rows


def _direct_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The n x k x d kernel the labels are defined by."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _assign(points: np.ndarray, centers: np.ndarray,
            sq_norms: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every row, ties to the lowest index.

    Distances are ranked by the expansion ||x||^2 - 2 x.c + ||c||^2, one
    GEMM and O(n*k) memory; ``sq_norms`` holds ||x||^2 per row. The
    expansion and the direct sum of squared differences each lie within
    about (d + 2.5) * eps * (||x||^2 + ||c||^2) of the exact distance, so a
    row whose runner-up is more than twice that behind its minimum has the
    same argmin under both. The other rows are ranked by the direct kernel,
    and the labels equal those of ``_direct_sq_dist`` bit for bit.
    """
    d = points.shape[1]
    center_sq = np.einsum("ij,ij->i", centers, centers)
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += center_sq
    labels = np.argmin(d2, axis=1)
    slack = 8.0 * (d + 2) * _EPS * (sq_norms + center_sq.max())
    near = d2 <= (d2.min(axis=1) + slack)[:, None]
    _direct_labels(points, np.flatnonzero(np.count_nonzero(near, axis=1) > 1),
                   centers, labels)
    return labels


def _direct_labels(points: np.ndarray, rows: np.ndarray, centers: np.ndarray,
                   labels: np.ndarray) -> None:
    """Set ``labels[rows]`` to the rows' nearest centers by the direct
    kernel, ties to the lowest index.

    The rows are gathered into new C blocks, so each is summed as the
    kernel sums the C rows of ``points``; blocks of n // k rows keep this
    within O(n*d) memory.
    """
    step = max(1, points.shape[0] // centers.shape[0])
    for lo in range(0, rows.size, step):
        block = rows[lo:lo + step]
        labels[block] = np.argmin(_direct_sq_dist(points[block], centers), axis=1)


def _repair_empty(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the farthest point of the currently largest one.

    The largest cluster of a labeling with an empty one has two members or
    more, so no repair empties a cluster.
    """
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return labels
    labels = labels.copy()
    for e in np.flatnonzero(counts == 0):
        g = int(np.argmax(counts))
        members = np.flatnonzero(labels == g)
        center_g = points[members].mean(axis=0)
        far = members[int(np.argmax(((points[members] - center_g) ** 2).sum(axis=1)))]
        labels[far] = e
        counts[g] -= 1
    return labels


def _update_centers(points: np.ndarray, labels: np.ndarray, centers: np.ndarray,
                    work: np.ndarray) -> None:
    """``centers[c] = points[labels == c].mean(axis=0)`` for every c, bit for bit.

    That mean gathers the members in row order and sums them pairwise when
    d == 1 and left to right otherwise. The members of each cluster are
    gathered the same way, into consecutive rows of ``work``, and summed by
    the same reduction.
    """
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    np.take(points, np.argsort(labels, kind="stable"), axis=0, out=work, mode="clip")
    lo = 0
    for c, hi in enumerate(np.cumsum(counts).tolist()):
        np.add.reduce(work[lo:hi], axis=0, out=centers[c])
        lo = hi
    centers /= counts[:, None]


def _inertia(points: np.ndarray, centers: np.ndarray, labels: np.ndarray,
             work: np.ndarray) -> float:
    """``float(((points - centers[labels]) ** 2).sum())`` bit for bit."""
    np.take(centers, labels, axis=0, out=work, mode="clip")
    np.subtract(points, work, out=work)
    np.square(work, out=work)
    return float(work.sum())


@dataclass
class _PointSpace:
    """The points path of one ``kmeans`` call, for n >= d points, with the
    interface of ``_GramSpace``: ``seed`` draws a restart's seed rows,
    ``lloyd`` runs it, and ``slack`` bounds how far each final inertia may
    lie from ``_inertia``'s, here 0 because it is ``_inertia``'s."""

    points: np.ndarray
    sq_norms: np.ndarray
    seeds: _SeedDistances
    work: np.ndarray

    def seed(self, k: int, rng: _PCG64) -> np.ndarray:
        return _plus_plus_init(k, rng, self.seeds)

    def lloyd(self, rows: np.ndarray):
        """One restart's Lloyd steps from the seed ``rows``. Returns the last
        labels, the step count, whether they converged, and their inertia."""
        points = self.points
        centers = points[rows]
        labels = np.full(points.shape[0], -1)
        converged = False
        for iterations in range(1, _MAX_ITER + 1):
            new_labels = _repair_empty(points, _assign(points, centers, self.sq_norms),
                                       rows.size)
            if np.array_equal(new_labels, labels):
                # nothing has written into ``centers`` since they were the
                # means of these labels, so they stand as they are
                converged = True
                break
            labels = new_labels
            _update_centers(points, labels, centers, self.work)
        return labels, iterations, converged, _inertia(points, centers, labels, self.work)

    def slack(self, inertia: np.ndarray) -> np.ndarray:
        return np.zeros_like(inertia)


def _partition_key(labels: np.ndarray) -> bytes:
    """The labels renumbered in order of first appearance: equal for two
    labelings exactly when they make the same partition."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse].tobytes()


def _pick(finals: list, inertia: np.ndarray, slack: np.ndarray, exact) -> int:
    """The first restart whose final labels ``finals[r]`` have the least
    inertia by ``exact``, given ``inertia[r]`` within ``slack[r]`` of it: a
    restart above the smallest by more than both slacks cannot be first."""
    low = int(np.argmin(inertia))
    near = np.flatnonzero(~(inertia - slack > inertia[low] + slack[low]))
    # restarts that end on one partition, however numbered, have the same
    # centers and ``_inertia`` bits, and the first of them stands for all
    firsts: dict[bytes, int] = {}
    for r in near.tolist():
        firsts.setdefault(_partition_key(finals[r]), r)
    picks = list(firsts.values())
    if len(picks) == 1:
        return picks[0]
    return picks[int(np.argmin([exact(finals[r]) for r in picks]))]


class _GramSpace:
    """The Gram path of one ``kmeans`` call, for n < d points.

    G = X X^T is formed once. The squared distance of row i to the mean of
    a set C of m rows is G_ii - 2/m sum_{j in C} G_ij + 1/m^2 sum_{j,l in C} G_jl
    in exact arithmetic; ``distances`` evaluates it for k sets at once by
    one product of G with their 0/1 membership columns. A k-means++ seed is
    the set of its one row.

    The bound. Let u = eps, S the largest G_ii, and n + d < 1 / (100 u).
    Every row, exact mean and rounded mean then has a squared norm of at
    most 1.01 S. ``kmeans`` takes this path only for 2^-900 < S <
    max / (4 n^2), so no value formed here overflows, and each subnormal
    rounding (at most 2^-1075) is far below the bounds that follow.

    - Each Gram entry is a dot product of length d, within 1.01 d u S of
      x_i.x_j. A sum of m of them over m is within 1.01 (d + n) u S of its
      exact value, and a double sum over m^2 within 1.01 (d + 2n) u S. With
      the roundings that combine the terms, a Gram distance lies within
      4.1 (d + n + 4) u S of the exact distance to the exact mean.
    - The points path sums d rounded squared differences from a center c:
      within 4.1 (d + 2) u S of ||x_i - c||^2. Its c is a data row, or a
      rounded mean within 1.02 n u sqrt(S) of the exact mean (each
      coordinate sums m terms and divides by m), which moves the distance by
      at most 4.2 n u S.

    So a Gram distance and the points path's value differ by at most
    E = 16 (d + n + 2) u S, ``self.bound``, about twice the sum of the two.
    Three kinds of decision are made from Gram values, each only when a
    certificate holds; otherwise the points path's kernels make it:

    1. Each k-means++ draw (``seed``). The distances to the drawn rows, a
       from the points path and b from G clamped at zero, differ by at most
       E per entry. If max b > E, the exact total is positive too. Their
       cdfs then differ by at most 4 n E / sum(b) + 16 (n + 1) u: in exact
       arithmetic a partial sum over the total moves by at most
       2 n E / sum(b), or 2.02 n E over its rounded value, and rounding
       moves each cdf by at most 1.01 (4n + 3) u. A uniform draw further
       than that from both neighbouring entries of the Gram cdf picks the
       same row on both cdfs.
    2. Each label (``lloyd``). A row whose runner-up Gram distance lies more
       than 2E behind its nearest has that nearest center on the points path
       too. The other rows are ranked by the direct kernel on the centers
       the points path holds at that step.
    3. The restart pick (``slack``). The inertia summed from n Gram
       distances and the one ``_inertia`` sums from n d squares differ by
       at most n E + 4 (n d + n + 2) u (|I| + n E), the slack ``_pick``
       certifies the first minimum with.

    The winner's centers and inertia are never read from G: ``kmeans``
    computes them from its final labels, which are exact, with the points
    path's kernels.
    """

    def __init__(self, points: np.ndarray, seeds: _SeedDistances, work: np.ndarray):
        n, d = points.shape
        self.points = points
        self.seeds = seeds
        self.work = work
        self.gram = points @ points.T
        self.diag = self.gram.diagonal().copy()
        self.bound = _GRAM_SLACK * (d + n + 2) * _EPS * self.diag.max()

    def distances(self, members: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The n x k Gram distances of every row to the mean of each column's members."""
        prod = self.gram @ members
        sums = np.einsum("ij,ij->j", members, prod)
        prod *= -2.0 / counts
        prod += self.diag[:, None]
        prod += sums / (counts * counts)
        return prod

    def _row_distances(self, row: int) -> np.ndarray:
        """The Gram distances of every row to row ``row``, clamped at zero."""
        d2 = self.diag + self.gram[row, row]
        d2 -= 2.0 * self.gram[row]
        return np.maximum(d2, 0.0, out=d2)

    def _exact_distances(self, rows: np.ndarray) -> np.ndarray:
        """The points path's distances of every row to the nearest of ``rows``."""
        d2 = self.seeds(rows[0])
        for r in rows[1:]:
            d2 = np.minimum(d2, self.seeds(r))
        return d2

    def seed(self, k: int, rng: _PCG64) -> np.ndarray:
        """The rows ``_plus_plus_init`` draws from ``rng`` (certificate 1)."""
        n = self.diag.size
        rows = np.empty(k, dtype=np.intp)
        rows[0] = rng.integers(n)
        d2 = self._row_distances(rows[0])
        for i in range(1, k):
            if d2.max() > self.bound:
                u = rng.random()
                total = d2.sum()
                cdf = _cdf(d2 / total)
                j = int(cdf.searchsorted(u, side="right"))
                margin = 4 * n * self.bound / total + 16 * (n + 1) * _EPS
                if (j == 0 or u - cdf[j - 1] > margin) and cdf[j] - u > margin:
                    rows[i] = j
                else:
                    exact = self._exact_distances(rows[:i])
                    rows[i] = _draw(exact / exact.sum(), u)
            else:
                rows[i] = _next_row(self._exact_distances(rows[:i]), rng)
            np.minimum(d2, self._row_distances(rows[i]), out=d2)
        return rows

    def lloyd(self, rows: np.ndarray):
        """``_PointSpace.lloyd`` from the Gram (certificate 2); the inertia
        it returns is that of the Gram distances."""
        points = self.points
        n, k = points.shape[0], rows.size
        every = np.arange(n)
        members = np.zeros((n, k))
        members[rows, np.arange(k)] = 1.0
        counts = np.ones(k)
        labels = np.full(n, -1)
        converged = False
        for iterations in range(1, _MAX_ITER + 1):
            dist = self.distances(members, counts)
            new_labels = np.argmin(dist, axis=1)
            if k > 1:
                two = np.partition(dist, 1, axis=1)
                unsure = np.flatnonzero(~(two[:, 1] - two[:, 0] > 2.0 * self.bound))
                if unsure.size:
                    centers = points[rows]
                    if iterations > 1:  # the points path's centers at this step
                        _update_centers(points, labels, centers, self.work)
                    _direct_labels(points, unsure, centers, new_labels)
            new_labels = _repair_empty(points, new_labels, k)
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
            members.fill(0.0)
            members[every, labels] = 1.0
            counts = np.bincount(labels, minlength=k)
        else:
            dist = self.distances(members, counts)
        return labels, iterations, converged, float(dist[every, labels].sum())

    def slack(self, inertia: np.ndarray) -> np.ndarray:
        """How far each Gram inertia may lie from ``_inertia``'s (certificate 3)."""
        n, d = self.points.shape
        return n * self.bound + 4 * (n * d + n + 2) * _EPS * (np.abs(inertia) + n * self.bound)


def kmeans(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Cluster the rows of ``points`` into k groups: the best of 10
    k-means++ restarts of at most 300 Lloyd steps each.

    k-means works on one C-ordered float64 copy of ``points`` (none is made
    when they already are one), so its results depend only on the values.

    One driver serves both paths. It seeds and runs each restart in turn,
    the seedings sharing one table of ``min(n, 10 k)`` distance vectors,
    keeps only each restart's final labels and inertia, picks the winner
    (``_pick``), and computes the winner's centers and inertia from its
    final labels. With n < d (and squared norms far from
    underflow and overflow) the restarts run on the n x n Gram of the
    points, each decision certified or else made from the points; with
    n >= d every distance comes from the points. Both paths return the same
    result bit for bit.

    Parameters
    ----------
    points : (n, d) array
    k : number of clusters, 1 <= k <= n
    seed : seeds one generator shared by all restarts, >= 0

    Returns
    -------
    KMeansResult

    Raises
    ------
    ValidationError
        If a point is not finite or its squared norm overflows.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be 2-D (one row per sample)")
    n, d = points.shape
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range for {n} points")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    sq_norms = np.einsum("ij,ij->i", points, points)
    if not np.isfinite(sq_norms).all():
        raise ValidationError("points must be finite, with squared norms below "
                              "the float64 maximum")
    rng = _PCG64(seed)
    seeds = _SeedDistances(points, min(n, k * _N_INIT))
    work = np.empty_like(points)
    scale = sq_norms.max()
    if n < d and 2.0 ** -900 < scale < np.finfo(np.float64).max / (4 * n * n):
        space = _GramSpace(points, seeds, work)
    else:
        space = _PointSpace(points, sq_norms, seeds, work)
    runs = [space.lloyd(space.seed(k, rng)) for _ in range(_N_INIT)]
    centers = np.empty((k, d))

    def exact(labels):  # the points path's inertia, and means in ``centers``
        _update_centers(points, labels, centers, work)
        return _inertia(points, centers, labels, work)

    inertia = np.array([run[3] for run in runs])
    winner = _pick([run[0] for run in runs], inertia, space.slack(inertia), exact)
    labels, iterations, converged, _ = runs[winner]
    return KMeansResult(labels=labels, centers=centers, inertia=exact(labels),
                        iterations=iterations, converged=converged)


def principal_axes(points: np.ndarray):
    """The centered rows of ``points`` and their principal axes as rows,
    strongest first: ``centered @ axes[:k].T`` are the top k components."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be 2-D")
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered, vt
