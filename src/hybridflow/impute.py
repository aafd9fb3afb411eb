"""Traffic-volume estimation at unobserved locations.

Gaussian-process regression with a squared-exponential kernel over
shortest-path distance along the (undirected) road graph, plus a
k-nearest-neighbor baseline over the same distance. Desk scale: direct
Cholesky factorization, no sparse approximations.

Distances and kernels are array passes: each point's geometry is computed
once, and the fit, prediction and kNN read distances a row block at a time.
Prediction takes queries in blocks of 64, stacks their kernel rows and solves
them in one batched call that still makes one LAPACK ``dgesv`` per query,
because one solve of the whole block rounds differently. Those per-query
factorizations are most of a prediction, so the solves of different blocks
run on up to ``_solver_threads()`` threads at once (numpy releases the GIL
inside LAPACK); each query still gets the bits of its own serial solve. The
count is the usable CPUs over the BLAS threads per call, read from
``OPENBLAS_NUM_THREADS`` or else ``OMP_NUM_THREADS``. With neither set, the
BLAS already spreads each call over every CPU, and two solver threads on top
of it were slower than one (0.74 s against 0.56 s per ``impute_sensors`` op
in-process, 2-core VM), so prediction stays serial. With one BLAS thread per
call, as ``bench/run.py`` pins it, two solver threads take the workload's
``wall_s`` from 0.79 s to 0.47 s.

GP outputs are byte-identical only for one BLAS build *and* one BLAS thread
count: the same 1000 predictions on 200 sensors differ between
``OPENBLAS_NUM_THREADS`` unset and set to 1 (2-core VM, numpy 2.4, OpenBLAS
0.3.31). The pinned digests hold because ``bench/run.py`` pins it to 1.

The squared-exponential kernel of network distance is not positive definite
in general, on trees as well as on cyclic networks: on a comb tree (a 10-node
spine of 300 m edges with a 300 m tooth at each node, 1 % noise) its Cholesky
factorization fails from 50 sensors at a 150 m length scale and from 20 at
600 m, and ``fit_gpr`` raises ImputeError. The ``euclidean`` flag uses
straight-line distance, over which the kernel is positive definite.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .road_net import RoadNetwork, node_distances

_JITTER = 1e-8
_BLOCK = 64  # queries per predict_gpr block: bounds the kernel rows held at once


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
    flow_veh_day: float

    def __post_init__(self):
        if not 0 <= self.flow_veh_day < math.inf:
            raise ImputeError(f"flow {self.flow_veh_day} is negative or not finite")


@dataclass(frozen=True)
class _Points:
    """Geometry of n points: planar positions (n, 2) under the Euclidean
    metric; else edge indices (n,), end node indices (n, 2) and distances to
    the from and to ends (n, 2)."""
    n: int
    xy: np.ndarray
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


class _DistanceOracle:
    """Distances between on-edge points, a row block at a time.

    ``points`` computes each point's geometry once. ``rows(a, b)`` is the
    block d(a_i, b_j): ``math.hypot`` per pair (``np.hypot`` rounds some pairs
    differently), or the shorter of the same-edge offset difference and the
    paths through the four end-node pairs, read from Dijkstra rows cached per
    row end node. Network distance is not bit-symmetric: d(a, b) and d(b, a)
    can differ in the last bits.
    """

    def __init__(self, net: RoadNetwork, euclidean: bool = False):
        self.net = net
        self.euclidean = euclidean
        self._node_ids = list(net.nodes)
        self._node_index = {nid: i for i, nid in enumerate(self._node_ids)}
        self._edge_index = {eid: i for i, eid in enumerate(net.edges)}
        self._node_rows = {}

    def _node_row(self, i: int) -> np.ndarray:
        row = self._node_rows.get(i)
        if row is None:
            dist = node_distances(self.net, self._node_ids[i])
            row = self._node_rows[i] = np.array(
                [dist.get(nid, math.inf) for nid in self._node_ids])
        return row

    def points(self, locations) -> _Points:
        xy, edge, node, dist = [], [], [], []
        for p in locations:
            if fault := location_fault(self.net, p):
                raise ImputeError(fault[1])
            e = self.net.edges[p.edge]
            if self.euclidean:
                a, b = self.net.nodes[e.from_node], self.net.nodes[e.to_node]
                f = p.offset_m / e.length_m
                xy.append((a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)))
            else:
                edge.append(self._edge_index[p.edge])
                node.append((self._node_index[e.from_node], self._node_index[e.to_node]))
                dist.append((p.offset_m, e.length_m - p.offset_m))
        return _Points(len(xy) + len(edge), np.array(xy, dtype=float).reshape(-1, 2),
                       np.array(edge, dtype=int), np.array(node, dtype=int).reshape(-1, 2),
                       np.array(dist, dtype=float).reshape(-1, 2))

    def rows(self, a: _Points, b: _Points) -> np.ndarray:
        if self.euclidean:
            bx, by = b.xy.T
            return np.array([np.fromiter(map(math.hypot, (ax - bx).tolist(),
                                             (ay - by).tolist()), float, b.n)
                             for ax, ay in a.xy.tolist()]).reshape(a.n, b.n)
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
    sigma_f2: float
    length_scale_m: float
    sigma_n2: float = 0.0
    euclidean: bool = False

    def __post_init__(self):
        if self.length_scale_m <= 0:
            raise ImputeError("length scale must be positive")
        if self.sigma_f2 <= 0:
            raise ImputeError("signal variance must be positive")
        if self.sigma_n2 < 0:
            raise ImputeError("noise variance must be non-negative")


def default_params(values, length_scale_m: float) -> GprParams:
    """Spec'd defaults: signal variance from the data, 1 % noise."""
    var = float(np.var(values))
    var = var if var > 0 else 1.0
    return GprParams(sigma_f2=var, length_scale_m=length_scale_m, sigma_n2=0.01 * var)


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


def fit_gpr(net: RoadNetwork, observations, params: GprParams) -> GprModel:
    """Squared-exponential GP over network distance, Cholesky-factorized.

    Duplicate locations with zero noise make the kernel singular and are
    rejected; a 1e-8 jitter keeps well-posed systems stable.
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
        raise ImputeError(f"kernel matrix not positive definite: {exc}") from exc
    prior = float(np.mean(y))
    resid = y - prior
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, resid))
    # iterative refinement tightens noise-free interpolation
    best = float(np.linalg.norm(resid - A @ alpha))
    for _ in range(4):
        r = resid - A @ alpha
        cand = alpha + np.linalg.solve(L.T, np.linalg.solve(L, r))
        norm = float(np.linalg.norm(resid - A @ cand))
        if norm >= best:
            break
        alpha, best = cand, norm
    return GprModel(params=params, locations=locations, prior_mean=prior,
                    alpha=alpha, chol=L, oracle=oracle, points=points)


def _solver_threads() -> int:
    """Threads that may solve prediction blocks at once: the usable CPUs over
    the BLAS threads per call; 1 when that count is unset or unreadable."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    per_call = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        per_call = int(per_call)
    except (TypeError, ValueError):
        return 1
    return max(1, cpus // per_call) if per_call > 0 else 1


def _solve_block(L: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Rows L^-1 k of the kernel rows K: a batched solve whose gufunc makes one
    LAPACK ``dgesv`` call per row, as a per-query solve would."""
    return np.linalg.solve(np.broadcast_to(L, (len(K),) + L.shape), K[:, :, None])[:, :, 0]


def predict_gpr(model: GprModel, locations, clamp: bool = True) -> list:
    """Posterior (mean, variance) per query; variance clamped at zero.

    Queries go in blocks of ``_BLOCK``: one distance block and its kernel rows,
    then ``_solve_block``, then per-row dots for the means and variances. A
    single solve of all rows, or a ``K @ alpha`` product, would round
    differently and change the output bits.

    With more than one block and ``_solver_threads()`` above 1, the solves
    run on that many pool threads, one block each in flight, while this
    thread builds the next blocks' kernel rows (the distance oracle and its
    Dijkstra cache stay on it) and takes the dots in query order. The pool
    has ended when the call returns, by a result or by a solve's error.

    The squared-exponential kernel of graph distance is not positive definite
    on every network, trees included, so where the fit succeeds raw variances
    can still dip negative; use the ``euclidean`` flag, or ``clamp=False`` to
    inspect raw values.
    """
    locations = list(locations)
    L, sigma_f2 = model.chol, model.params.sigma_f2
    out = []

    def kernel_rows(start):
        queries = model.oracle.points(locations[start:start + _BLOCK])
        return _kernel(model.params, model.oracle.rows(queries, model.points))

    def finish(K, V):
        for k, v in zip(K, V):
            var = sigma_f2 - float(v @ v)
            out.append((model.prior_mean + float(k @ model.alpha),
                        max(var, 0.0) if clamp else var))

    starts = range(0, len(locations), _BLOCK)
    threads = min(_solver_threads(), len(starts))
    if threads <= 1:
        for start in starts:
            K = kernel_rows(start)
            finish(K, _solve_block(L, K))
        return out
    # imported here, not at module level, where it adds ~3.5 ms to every import
    from concurrent.futures import ThreadPoolExecutor
    pending = []  # (kernel rows, future of their solve), oldest first
    with ThreadPoolExecutor(threads) as pool:
        for start in starts:
            K = kernel_rows(start)
            if len(pending) == threads:
                done, solved = pending.pop(0)
                finish(done, solved.result())
            pending.append((K, pool.submit(_solve_block, L, K)))
        for K, solved in pending:
            finish(K, solved.result())
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
    if not 1 <= k <= len(obs):
        raise ImputeError(f"k={k} outside [1, {len(obs)}]")
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
