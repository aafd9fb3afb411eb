"""Traffic-volume estimation at unobserved locations.

Gaussian-process regression with a squared-exponential kernel over
shortest-path distance along the (undirected) road graph, plus a
k-nearest-neighbor baseline over the same distance. Desk scale: direct
Cholesky factorization, no sparse approximations.

Distances and kernels are array passes: each list of points gets its geometry
in one pass, the fit, prediction and kNN read distances a row block at a time,
straight-line ones with ``math.hypot``'s bits and no Python call per pair
(``_hypot``), and each matrix is factored once for all its solves
(``_factored``). GP outputs are byte-identical only for one BLAS build *and*
one BLAS thread count. The squared-exponential kernel of network distance is
not positive definite in general, trees included, so ``fit_gpr`` can raise
ImputeError; the ``euclidean`` flag uses straight-line distance, over which it
is. README's "Notes on scale" gives the measurements.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .road_net import RoadNetwork, node_distances
from .schema import Field, check_fields, ranged

_JITTER = 1e-8
_BLOCK = 64  # queries per predict_gpr block: bounds the kernel rows held at once
_PAIRS = 8192  # pairs per _hypot call, so that its temporaries stay ≈64 KB each
_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter of a double into two 26-bit halves
_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal doubles' range
_EUCLIDEAN_HINT = ("; over network distance the kernel need not be, so set stages.impute."
                   "euclidean in the config or pass --euclidean to hybridflow impute")


class ImputeError(ValueError):
    """Bad observations or kernel parameters."""


@dataclass(frozen=True)
class NetPoint:
    """A position on the network: edge id plus offset from its start node."""
    edge: str
    offset_m: float


@dataclass(frozen=True)
class VolumeObservation:
    location: NetPoint
    day: int
    flow_veh_day: float = ranged(float, ge=0, lt=math.inf, name="flow")

    def __post_init__(self):
        check_fields(self, ImputeError)


@dataclass(frozen=True)
class _Points:
    """Geometry of n points: edge indices (n,), end node indices (n, 2),
    distances to the from and to ends (n, 2) and, under the Euclidean metric,
    planar positions (n, 2)."""
    n: int
    xy: np.ndarray | None
    edge: np.ndarray
    node: np.ndarray
    dist: np.ndarray


def location_fault(net: RoadNetwork, point: NetPoint):
    """(field, message) of a point off the network, an unknown edge or an offset
    outside its edge; None for a point on it."""
    if point.edge not in net.edges:
        return "edge", f"unknown edge {point.edge!r}"
    if not 0.0 <= point.offset_m <= net.edges[point.edge].length_m:
        return "offset_m", f"offset {point.offset_m} outside edge {point.edge!r}"
    return None


def _square(v: np.ndarray) -> np.ndarray:
    """The rounded square z of v, with v overwritten by its error, so that
    z + v == v * v exactly: Dekker's product of v's two 26-bit halves (CPython's
    ``dl_mul(v, v)``)."""
    lo = v * _SPLIT
    hi = lo - v
    np.subtract(lo, hi, out=hi)  # hi = t - (t - v)
    np.subtract(v, hi, out=lo)   # lo = v - hi
    np.multiply(hi, hi, out=v)   # p
    hi *= lo
    hi += hi                     # q = hi * lo + lo * hi, each exact
    z = v + hi
    v -= z
    v += hi
    lo *= lo
    v += lo                      # p - z + q + lo * lo
    return z


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise, with its bits. CPython's ``vector_norm`` for two
    coordinates, one array step per C operation: scale by the power of two of
    ``frexp(max(|x|, |y|))``, square each coordinate exactly (``_square``), add the
    squares by fast two-sum into ``csum``, ``frac1`` and ``frac2``, take the root,
    make one correction step with the exact square of ``-h`` and scale back. Each
    step is exact or one IEEE-rounded ufunc, as each C operation is.

    Two kinds of element take ``math.hypot``'s own value: those whose larger
    magnitude is zero, subnormal, infinite or NaN, and those whose result before
    the last rounding lies within 2**-40 of a double's spacing from a midpoint
    between doubles. Near a midpoint CPython's versions round apart (3.10-3.11
    and 3.12-3.13 differ on about 1 in 110 pairs (x, 0.75 x)); everywhere else
    each holds the result to about 100 bits before that rounding, so all round
    alike."""
    ax, ay = np.abs(x), np.abs(y)
    scale = np.maximum(ax, ay)
    odd = ~((scale >= _TINY) & (scale <= _HUGE))  # NaN fails both
    ax[odd] = ay[odd] = scale[odd] = 1.0
    np.ldexp(1.0, -np.frexp(scale)[1], out=scale)
    csum, frac1, frac2 = 1.0, 0.0, 0.0
    for v in (ax, ay):
        v *= scale
        z = _square(v)
        total = csum + z
        frac2 = frac2 + ((csum - total) + z)
        frac1 = frac1 + v
        csum = total
    h = np.sqrt((csum - 1.0) + (frac1 + frac2))
    ax[...] = h  # ax is spent: it takes h's square apart
    z = _square(ax)  # -h times -h is the pair (-z, -ax)
    total = csum - z
    frac2 += (csum - total) - z
    frac1 -= ax
    frac1 = ((total - 1.0) + (frac1 + frac2)) / (2.0 * h)  # the correction
    out = h + frac1
    h -= out
    h += frac1  # the rounding error of out, exactly
    np.abs(h, out=h)
    odd |= h >= (out - np.nextafter(out, 0.0)) * (0.5 - 2.0 ** -40)
    with np.errstate(over="ignore"):  # math.hypot gives inf there too
        out /= scale
    if odd.any():
        out[odd] = [math.hypot(u, v) for u, v in zip(x[odd].tolist(), y[odd].tolist())]
    return out


class _DistanceOracle:
    """Distances between on-edge points, a row block at a time.

    ``points`` computes the geometry of a list of points in one array pass over
    per-edge end nodes and lengths. ``rows(a, b)`` is the block d(a_i, b_j): the
    straight-line distance with ``math.hypot``'s bits (``_hypot``; ``np.hypot``
    rounds some pairs differently), up to ``_PAIRS`` pairs at a time, or the shorter
    of the same-edge offset difference and the paths through the four end-node
    pairs, read from Dijkstra rows cached per row end node. Network distance is
    not bit-symmetric: d(a, b) and d(b, a) can differ in the last bits.
    """

    def __init__(self, net: RoadNetwork, euclidean: bool = False):
        self.net = net
        self.euclidean = euclidean
        self._node_ids = list(net.nodes)
        self._node_index = {nid: i for i, nid in enumerate(self._node_ids)}
        self._edge_index = {eid: i for i, eid in enumerate(net.edges)}
        edges, index = net.edges.values(), self._node_index
        # per edge: end node indices, and the length, then a NaN that an unknown
        # edge's index -1 reads and no offset fits; per node, its position if Euclidean
        self._ends = np.array([[index[e.from_node] for e in edges],
                               [index[e.to_node] for e in edges]], dtype=int).T
        self._length = np.array([e.length_m for e in edges] + [math.nan])
        nodes = net.nodes.values()
        self._xy = (np.array([[v.x for v in nodes], [v.y for v in nodes]], dtype=float).T
                    if euclidean else None)
        self._node_rows = {}

    def _node_row(self, i: int) -> np.ndarray:
        row = self._node_rows.get(i)
        if row is None:
            dist = node_distances(self.net, self._node_ids[i])
            row = self._node_rows[i] = np.array(
                [dist.get(nid, math.inf) for nid in self._node_ids])
        return row

    def points(self, locations) -> _Points:
        """The geometry of locations; ImputeError gives ``location_fault``'s
        message for the first one off the network."""
        locations = list(locations)
        edge = np.array([self._edge_index.get(p.edge, -1) for p in locations], dtype=int)
        off = np.array([p.offset_m for p in locations], dtype=float)
        length = self._length[edge]
        bad = (edge < 0) | ~((off >= 0.0) & (off <= length))  # NaN fails both
        if bad.any():
            raise ImputeError(location_fault(self.net, locations[int(bad.argmax())])[1])
        node, xy = self._ends[edge], None
        if self.euclidean:
            a, b = self._xy[node[:, 0]], self._xy[node[:, 1]]
            xy = a + (off / length)[:, None] * (b - a)
        return _Points(len(edge), xy, edge, node, np.stack([off, length - off], axis=1))

    def rows(self, a: _Points, b: _Points) -> np.ndarray:
        if self.euclidean:
            out = np.empty((a.n, b.n))
            step = max(1, _PAIRS // max(b.n, 1))
            for start in range(0, a.n, step):
                block = a.xy[start:start + step]
                out[start:start + step] = _hypot(block[:, :1] - b.xy[:, 0],
                                                 block[:, 1:] - b.xy[:, 1])
            return out
        best = np.where(a.edge[:, None] == b.edge,
                        np.abs(a.dist[:, :1] - b.dist[:, 0]), math.inf)
        for i in (0, 1):
            reach = np.array([self._node_row(u) for u in a.node[:, i].tolist()]).reshape(
                a.n, len(self._node_ids))
            for j in (0, 1):
                best = np.minimum(best, (a.dist[:, i, None] + reach[:, b.node[:, j]])
                                  + b.dist[:, j])
        return best


@dataclass
class GprParams:
    sigma_f2: float = ranged(float, gt=0)
    length_scale_m: float = ranged(1000.0, gt=0)
    sigma_n2: float = ranged(0.0, ge=0)
    euclidean: bool = False

    def __post_init__(self):
        check_fields(self, ImputeError)


def default_params(values, length_scale_m: float, euclidean: bool = False) -> GprParams:
    """Spec'd defaults: signal variance from the data, 1 % noise."""
    var = float(np.var(values))
    var = var if var > 0 else 1.0
    return GprParams(var, length_scale_m, 0.01 * var, euclidean)


@dataclass
class GprModel:
    params: GprParams
    locations: list
    prior_mean: float
    alpha: np.ndarray           # (K + sigma_n2 I)^-1 (y - prior)
    chol: np.ndarray
    oracle: _DistanceOracle = field(repr=False)
    points: _Points = field(repr=False)   # geometry of ``locations``


def _kernel(params: GprParams, d: np.ndarray) -> np.ndarray:
    ell = params.length_scale_m
    # disconnected pairs get zero covariance
    return np.where(np.isfinite(d),
                    params.sigma_f2 * np.exp(-(d ** 2) / (2 * ell * ell)), 0.0)


def _lapack():
    """LAPACK's ``dgetrf`` and ``dgetrs`` from the ILP64 scipy-openblas under
    ``np.linalg.solve``, looked up through numpy's own linalg extension; None
    where that build lacks them (another BLAS, or 32-bit integers)."""
    try:
        import ctypes  # here, not at module level, where it would slow every import
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        getrf, getrs = lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_
    except (ImportError, OSError, AttributeError):
        return None
    getrf.argtypes, getrs.argtypes = [ctypes.c_void_p] * 6, [ctypes.c_void_p] * 9
    getrf.restype = getrs.restype = None
    return getrf, getrs


def _solve_block(L: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Rows L^-1 k of the kernel rows K: a batched solve whose gufunc makes one
    LAPACK ``dgesv`` call per row, as a per-query solve would."""
    return np.linalg.solve(np.broadcast_to(L, (len(K),) + L.shape), K[:, :, None])[:, :, 0]


def _factored(A: np.ndarray):
    """A function of rows B (k, n) that gives each row b the bits of
    ``np.linalg.solve(A, b)``: that solve's LAPACK ``dgesv`` is ``dgetrf`` then
    ``dgetrs``, so A is factored once and a row costs one ``dgetrs``, O(n^2).
    Without ``_lapack`` each row is solved by ``_solve_block``. A singular A
    raises numpy's LinAlgError at the first row, as the solve does."""
    lapack = _lapack()
    if lapack is None:
        return lambda B: _solve_block(A, B)
    getrf, getrs = lapack
    # a copy, as dgetrf overwrites it; the reshapes hold the buffers to the sizes passed
    lu = np.array(A, dtype=float, order="F").reshape((len(A), len(A)), order="F")
    ipiv = np.empty(len(A), dtype=np.int64)
    ints = np.array([len(A), 1, 0], dtype=np.int64)  # n, nrhs, info
    n, nrhs, info = (ints.ctypes.data + 8 * i for i in range(3))
    getrf(n, n, lu.ctypes.data, n, ipiv.ctypes.data, info)

    def solve(B):
        X = np.array(B, dtype=float, order="C").reshape(-1, len(A))  # a row per dgetrs
        if len(X) and ints[2] > 0:  # dgetrf's info, as no dgetrs has run
            raise np.linalg.LinAlgError("Singular matrix")
        for row in range(X.ctypes.data, X.ctypes.data + X.nbytes, 8 * len(A)):
            getrs(b"N", n, nrhs, lu.ctypes.data, n, ipiv.ctypes.data, row, n, info)
        return X
    return solve


def fit_gpr(net: RoadNetwork, observations, params: GprParams) -> GprModel:
    """Squared-exponential GP over network distance, Cholesky-factorized; L and
    L.T are each factored once for the solves of alpha and its refinement.

    Duplicate locations with zero noise make the kernel singular and are
    rejected; a 1e-8 jitter keeps well-posed systems stable. A kernel over
    network distance that fails Cholesky names the ``euclidean`` fix.
    """
    obs = list(observations)
    if not obs:
        raise ImputeError("need at least one observation")
    locations = [o.location for o in obs]
    if params.sigma_n2 == 0.0:
        seen = set()
        for loc in locations:
            key = (loc.edge, round(loc.offset_m, 9))
            if key in seen:
                raise ImputeError(
                    f"duplicate location {loc} with zero noise variance is singular")
            seen.add(key)
    y = np.array([o.flow_veh_day for o in obs], dtype=float)
    oracle = _DistanceOracle(net, euclidean=params.euclidean)
    points = oracle.points(locations)
    n = len(obs)
    # d(loc_i, loc_j) for i < j, mirrored: network distance is not bit-symmetric
    D = np.triu(oracle.rows(points, points), 1)
    D = D + D.T
    A = _kernel(params, D) + (params.sigma_n2 + _JITTER) * np.eye(n)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ImputeError(f"kernel matrix not positive definite: {exc}"
                          + ("" if params.euclidean else _EUCLIDEAN_HINT)) from exc
    solve_l, solve_lt = _factored(L), _factored(L.T)

    def solve_a(r):  # A^-1 r as np.linalg.solve(L.T, np.linalg.solve(L, r))
        return solve_lt(solve_l(r[None]))[0]

    prior = float(np.mean(y))
    resid = y - prior
    alpha = solve_a(resid)
    # iterative refinement tightens noise-free interpolation
    best = float(np.linalg.norm(resid - A @ alpha))
    for _ in range(4):
        r = resid - A @ alpha
        cand = alpha + solve_a(r)
        norm = float(np.linalg.norm(resid - A @ cand))
        if norm >= best:
            break
        alpha, best = cand, norm
    return GprModel(params=params, locations=locations, prior_mean=prior,
                    alpha=alpha, chol=L, oracle=oracle, points=points)


def predict_gpr(model: GprModel, locations, clamp: bool = True) -> list:
    """Posterior (mean, variance) per query; variance clamped at zero.

    ``model.chol`` is factored once (``_factored``). Queries go in blocks of
    ``_BLOCK``: one distance block and its kernel rows, one ``dgetrs`` per row,
    then per-row dots for the means and variances. A single solve of all rows,
    or a ``K @ alpha`` product, would round differently and change the output
    bits.

    Over graph distance raw variances can dip negative where the fit
    succeeds; ``clamp=False`` returns them raw.
    """
    locations = list(locations)
    solve, sigma_f2 = _factored(model.chol), model.params.sigma_f2
    out = []
    for start in range(0, len(locations), _BLOCK):
        queries = model.oracle.points(locations[start:start + _BLOCK])
        K = _kernel(model.params, model.oracle.rows(queries, model.points))
        for k, v in zip(K, solve(K)):
            var = sigma_f2 - float(v @ v)
            out.append((model.prior_mean + float(k @ model.alpha),
                        max(var, 0.0) if clamp else var))
    return out


def knn_estimate(observations, location: NetPoint, k: int, net: RoadNetwork) -> float:
    """Mean of the k network-nearest observations.

    Distance ties break on the lower edge id, then the day index.
    """
    return knn_estimates(observations, [location], k, net)[0]


def knn_estimates(observations, locations, k: int, net: RoadNetwork) -> list:
    """``knn_estimate`` at each location, all ranked against one distance oracle:
    one Dijkstra run per end node and one geometry per observation. Rows are
    elementwise, so each estimate has the bits of its own call."""
    obs = list(observations)
    if not obs:
        raise ImputeError("no observations")
    Field(int, ge=1, le=len(obs)).check(k, "k", ImputeError)
    oracle = _DistanceOracle(net)
    rows = oracle.rows(oracle.points(locations), oracle.points([o.location for o in obs]))
    out = []
    for dist in rows.tolist():
        order = sorted(range(len(obs)), key=lambda i: (dist[i], obs[i].location.edge,
                                                       obs[i].day))
        out.append(sum(obs[i].flow_veh_day for i in order[:k]) / k)
    return out


def read_observations_csv(path, net: RoadNetwork) -> list:
    """CSV columns: edge, offset_m, day, flow. ImputeError names the line and
    column of a missing or unreadable value, of a location off the network and
    of a negative or non-finite flow."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path}, line {reader.line_num}, column"
            values = []
            for column, kind in (("edge", str), ("offset_m", float), ("day", int),
                                 ("flow", float)):
                try:
                    values.append(kind(row[column]))
                except (KeyError, TypeError, ValueError):
                    raise ImputeError(f"{where} {column}: {row.get(column)!r} is not "
                                      f"{kind.__name__}") from None
            edge, offset, day, flow = values
            if fault := location_fault(net, NetPoint(edge, offset)):
                raise ImputeError(f"{where} {fault[0]}: {fault[1]}")
            try:
                out.append(VolumeObservation(NetPoint(edge, offset), day, flow))
            except ImputeError as exc:
                raise ImputeError(f"{where} flow: {exc}") from None
    return out


def write_predictions_csv(path, locations, predictions) -> None:
    """CSV columns: edge, offset_m, mean, variance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "offset_m", "mean", "variance"])
        for loc, (mean, var) in zip(locations, predictions):
            writer.writerow([loc.edge, loc.offset_m, repr(mean), repr(var)])
