"""Traffic-volume estimation at unobserved locations.

Gaussian-process regression with a squared-exponential kernel over
shortest-path distance along the (undirected) road graph, plus k-nearest
neighbor baselines, optionally weighted by temporal distance. Desk scale:
direct Cholesky factorization, no sparse approximations.

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
from dataclasses import dataclass, field

import numpy as np

from .road_net import RoadNetwork, node_distances

_JITTER = 1e-8


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
        if self.flow_veh_day < 0:
            raise ImputeError(f"negative flow {self.flow_veh_day}")


class _DistanceOracle:
    """Pairwise shortest-path distances between on-edge points (cached Dijkstra)."""

    def __init__(self, net: RoadNetwork, euclidean: bool = False):
        self.net = net
        self.euclidean = euclidean
        self._node_dist = {}

    def _from_node(self, node_id):
        if node_id not in self._node_dist:
            self._node_dist[node_id] = node_distances(self.net, node_id)
        return self._node_dist[node_id]

    def _check(self, p: NetPoint):
        if p.edge not in self.net.edges:
            raise ImputeError(f"unknown edge {p.edge!r}")
        e = self.net.edges[p.edge]
        if not 0.0 <= p.offset_m <= e.length_m:
            raise ImputeError(f"offset {p.offset_m} outside edge {p.edge!r}")
        return e

    def _euclid_pos(self, p: NetPoint):
        e = self.net.edges[p.edge]
        a, b = self.net.nodes[e.from_node], self.net.nodes[e.to_node]
        f = p.offset_m / e.length_m
        return (a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))

    def distance(self, a: NetPoint, b: NetPoint) -> float:
        ea, eb = self._check(a), self._check(b)
        if self.euclidean:
            pa, pb = self._euclid_pos(a), self._euclid_pos(b)
            return math.hypot(pa[0] - pb[0], pa[1] - pb[1])
        best = math.inf
        if a.edge == b.edge:
            best = abs(a.offset_m - b.offset_m)
        ends_a = ((ea.from_node, a.offset_m), (ea.to_node, ea.length_m - a.offset_m))
        ends_b = ((eb.from_node, b.offset_m), (eb.to_node, eb.length_m - b.offset_m))
        for na, da in ends_a:
            dist_map = self._from_node(na)
            for nb, db in ends_b:
                via = dist_map.get(nb, math.inf)
                best = min(best, da + via + db)
        return best


def network_distance(net: RoadNetwork, a: NetPoint, b: NetPoint) -> float:
    """Meters along the undirected road graph; inf when disconnected."""
    return _DistanceOracle(net).distance(a, b)


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


def default_params(values, length_scale_m: float = 1000.0) -> GprParams:
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
    oracle: _DistanceOracle = field(repr=False, default=None)

    def kernel_vec(self, loc: NetPoint) -> np.ndarray:
        d = np.array([self.oracle.distance(loc, l) for l in self.locations])
        return self._kernel_of(d)

    def _kernel_of(self, d):
        out = np.zeros_like(d, dtype=float)
        finite = np.isfinite(d)
        ell = self.params.length_scale_m
        out[finite] = self.params.sigma_f2 * np.exp(-(d[finite] ** 2) / (2 * ell * ell))
        return out  # disconnected pairs keep zero covariance


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
    n = len(obs)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = oracle.distance(locations[i], locations[j])
    ell = params.length_scale_m
    K = np.where(np.isfinite(D),
                 params.sigma_f2 * np.exp(-(D ** 2) / (2 * ell * ell)), 0.0)
    A = K + (params.sigma_n2 + _JITTER) * np.eye(n)
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
                    alpha=alpha, chol=L, oracle=oracle)


def predict_gpr(model: GprModel, locations, clamp: bool = True) -> list:
    """Posterior (mean, variance) per query; variance clamped at zero.

    The squared-exponential kernel of graph distance is not positive definite
    on every network, trees included, so where the fit succeeds raw variances
    can still dip negative; use the ``euclidean`` flag, or ``clamp=False`` to
    inspect raw values.
    """
    out = []
    for loc in locations:
        k_star = model.kernel_vec(loc)
        mean = model.prior_mean + float(k_star @ model.alpha)
        v = np.linalg.solve(model.chol, k_star)
        var = model.params.sigma_f2 - float(v @ v)
        out.append((mean, max(var, 0.0) if clamp else var))
    return out


def knn_estimate(observations, location: NetPoint, k: int, net: RoadNetwork,
                 tau_days: float | None = None, at_day: int = 0,
                 euclidean: bool = False) -> float:
    """Mean of the k network-nearest observations.

    With ``tau_days`` each neighbor is weighted by exp(-|day - at_day|/tau).
    Distance ties break on the lower edge id, then the day index.
    """
    obs = list(observations)
    if not obs:
        raise ImputeError("no observations")
    if not 1 <= k <= len(obs):
        raise ImputeError(f"k={k} outside [1, {len(obs)}]")
    oracle = _DistanceOracle(net, euclidean=euclidean)
    ranked = sorted(obs, key=lambda o: (oracle.distance(location, o.location),
                                        o.location.edge, o.day))
    chosen = ranked[:k]
    if tau_days is None:
        return sum(o.flow_veh_day for o in chosen) / k
    weights = [math.exp(-abs(o.day - at_day) / tau_days) for o in chosen]
    return sum(w * o.flow_veh_day for w, o in zip(weights, chosen)) / sum(weights)


def read_observations_csv(path) -> list:
    """CSV columns: edge, offset_m, day, flow."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(VolumeObservation(NetPoint(row["edge"], float(row["offset_m"])),
                                         int(row["day"]), float(row["flow"])))
    return out


def write_predictions_csv(path, locations, predictions) -> None:
    """CSV columns: edge, offset_m, mean, variance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "offset_m", "mean", "variance"])
        for loc, (mean, var) in zip(locations, predictions):
            writer.writerow([loc.edge, loc.offset_m, repr(mean), repr(var)])
