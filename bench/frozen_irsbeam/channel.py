"""Path-based downlink channel synthesis.

Three links are modeled: the reflector-array-to-base-station matrix H_bs
(K x N), the direct base-station-to-user matrix H_bu (N x M), and the
reflector-array-to-user matrix H_su (K x M). Each link is a sum of a few
paths, one path optionally boosted to sit a fixed margin above the rest to
act as the line-of-sight component. All randomness flows through an explicit
numpy Generator, so a trial is a deterministic function of its seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import load_matrix, save_matrix


@dataclass(frozen=True)
class SystemDims:
    """Array sizes: N transmit antennas, M single-antenna users, K reflectors."""

    N: int
    M: int
    K: int

    def __post_init__(self):
        if not (0 < self.M < self.N):
            raise ValueError(f"SystemDims: need 0 < M < N, got M={self.M}, N={self.N}")
        if self.K <= self.M:
            raise ValueError(f"SystemDims: need K > M, got K={self.K}, M={self.M}")


@dataclass(frozen=True)
class PathLossParams:
    """Decaying power law: gain(d) = c0 * (d/d0)**(-exponent)."""

    c0: float = 1e-3
    d0: float = 1.0
    exponent: float = 2.5

    def __post_init__(self):
        if self.c0 <= 0 or self.d0 <= 0 or self.exponent < 0:
            raise ValueError("PathLossParams: c0, d0 must be positive and exponent >= 0")


@dataclass(frozen=True)
class ChannelParams:
    """Propagation constants for the three links.

    Defaults: -30 dB reference gain at 1 m, exponent 2.5 on both reflector
    links and 3.7 on the direct link, 10/2/2 paths, base station 500 m from
    the reflector array, users placed 10 to 50 m from it, half-wavelength
    element spacing, 5 dB line-of-sight margin.
    """

    c0: float = 1e-3
    d0: float = 1.0
    eta_irs: float = 2.5
    eta_direct: float = 3.7
    q_irs: int = 10
    q_direct: int = 2
    q_irs_user: int = 2
    d_irs: float = 500.0
    user_range: tuple[float, float] = (10.0, 50.0)
    spacing: float = 0.5
    los_margin_db: float = 5.0

    def loss_irs(self) -> PathLossParams:
        return PathLossParams(self.c0, self.d0, self.eta_irs)

    def loss_direct(self) -> PathLossParams:
        return PathLossParams(self.c0, self.d0, self.eta_direct)


@dataclass(frozen=True)
class CsiQuality:
    """Channel-estimation accuracy, kappa = 1 meaning perfect knowledge."""

    kappa: float

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"CsiQuality: kappa must lie in [0, 1], got {self.kappa}")


@dataclass
class ChannelSet:
    """One channel realization plus the geometry it was drawn at.

    H_bs: K x N, H_bu: N x M, H_su: K x M. d_users and d_irs_users hold the
    per-user base-station and reflector-array distances used for path loss.
    """

    H_bs: np.ndarray
    H_bu: np.ndarray
    H_su: np.ndarray
    d_irs: float = 500.0
    d_users: np.ndarray = field(default_factory=lambda: np.zeros(0))
    d_irs_users: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def dims(self) -> tuple[int, int, int]:
        """(N, M, K)"""
        return self.H_bu.shape[0], self.H_bu.shape[1], self.H_bs.shape[0]

    def validate(self) -> None:
        n, m, k = self.dims
        if self.H_bs.shape != (k, n) or self.H_su.shape != (k, m):
            raise ValueError("ChannelSet: inconsistent shapes")
        for h in (self.H_bs, self.H_bu, self.H_su):
            if not np.all(np.isfinite(h)):
                raise ValueError("ChannelSet: non-finite entries")

    def without_direct_link(self) -> "ChannelSet":
        """Copy with the base-station-to-user block zeroed."""
        return replace(self, H_bu=np.zeros_like(self.H_bu))

    def without_irs(self) -> "ChannelSet":
        """Copy with the reflector-to-user block zeroed (direct link only)."""
        return replace(self, H_su=np.zeros_like(self.H_su))


def complex_normal(rng: np.random.Generator, *shape) -> np.ndarray:
    """Circularly symmetric unit-variance complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def path_loss(d: float, params: PathLossParams) -> float:
    """Linear power gain at distance d, decaying with the exponent."""
    if d <= 0:
        raise ValueError(f"path_loss: distance must be positive, got {d}")
    return params.c0 * (d / params.d0) ** (-params.exponent)


def ula_response(phi: float, n: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Uniform-linear-array steering vector, entry k = exp(2j*pi*ratio*k*cos(phi))."""
    if n < 1:
        raise ValueError(f"ula_response: need n >= 1, got {n}")
    return np.exp(2j * np.pi * spacing_ratio * np.arange(n) * np.cos(phi))


def _steer(n: int, u: float, spacing_ratio: float) -> np.ndarray:
    return np.exp(2j * np.pi * spacing_ratio * np.arange(n) * u)


def _planar_factors(k: int) -> tuple[int, int]:
    """Factor the reflector count into a rows x cols grid, square when K is a
    perfect square, otherwise the most-square divisor pair (1 x K worst case)."""
    r = int(np.sqrt(k))
    while r > 1 and k % r:
        r -= 1
    return r, k // r


def _planar_response(phi: float, psi: float, k: int, spacing_ratio: float,
                     rows: int, cols: int) -> np.ndarray:
    amp = np.sqrt(np.abs(np.cos(phi)))
    v_rows = _steer(rows, np.sin(phi) * np.sin(psi), spacing_ratio)
    v_cols = _steer(cols, np.sin(phi) * np.cos(psi), spacing_ratio)
    return amp * np.kron(v_rows, v_cols)


def upa_response(phi: float, psi: float, k: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Square uniform-planar-array response with the cosine element pattern.

    sqrt|cos phi| times the Kronecker product of two sqrt(K)-element steering
    vectors (elevation phi against the array normal, azimuth psi). Every entry
    has modulus sqrt|cos phi|; the pattern nulls out at phi = pi/2.
    """
    root = int(np.sqrt(k))
    if root * root != k:
        raise ValueError(f"upa_response: reflector count {k} is not a perfect square")
    return _planar_response(phi, psi, k, spacing_ratio, root, root)


def irs_response(phi: float, psi: float, k: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Planar response for any K, falling back to a rows x cols grid when K
    is not a perfect square (1 x K at worst)."""
    rows, cols = _planar_factors(k)
    return _planar_response(phi, psi, k, spacing_ratio, rows, cols)


def boost_los(path_gains: np.ndarray, margin_db: float = 5.0) -> np.ndarray:
    """Rescale gain 0 to sit exactly margin_db above the largest other gain.

    Phases are preserved; a single-path input is returned unchanged.
    """
    gains = np.asarray(path_gains, dtype=complex).copy()
    if gains.size <= 1:
        return gains
    target = 10.0 ** (margin_db / 20.0) * np.max(np.abs(gains[1:]))
    mag = np.abs(gains[0])
    phase = gains[0] / mag if mag > 0 else 1.0 + 0j
    gains[0] = phase * target
    return gains


def synth_bs_irs(rng: np.random.Generator, dims: SystemDims, n_paths: int,
                 distance: float, params: ChannelParams,
                 los_boost_db: float | None = None) -> np.ndarray:
    """Base-station-to-reflector matrix: sqrt(L(d)) * sum_q c_q a_irs a_bs^T.

    Path gains are unit complex normal (gain 0 boosted by los_boost_db when
    given), azimuths and departure angles uniform on [0, 2pi), elevations
    uniform on [0, pi). Numerical rank is at most n_paths.
    """
    if n_paths < 1:
        raise ValueError("synth_bs_irs: need at least one path")
    gains = complex_normal(rng, n_paths)
    if los_boost_db is not None:
        gains = boost_los(gains, los_boost_db)
    h = np.zeros((dims.K, dims.N), dtype=complex)
    for q in range(n_paths):
        elev = rng.uniform(0.0, np.pi)
        azim = rng.uniform(0.0, 2.0 * np.pi)
        aod = rng.uniform(0.0, 2.0 * np.pi)
        h += gains[q] * np.outer(
            irs_response(elev, azim, dims.K, params.spacing),
            ula_response(aod, dims.N, params.spacing),
        )
    return np.sqrt(path_loss(distance, params.loss_irs())) * h


def synth_bs_user(rng: np.random.Generator, n_bs: int, n_paths: int,
                  distance: float, params: ChannelParams) -> np.ndarray:
    """Direct-link vector for one user: sqrt(L(d)) * sum_q c_q a_bs(phi_q)."""
    gains = complex_normal(rng, n_paths)
    h = np.zeros(n_bs, dtype=complex)
    for q in range(n_paths):
        h += gains[q] * ula_response(rng.uniform(0.0, 2.0 * np.pi), n_bs, params.spacing)
    return np.sqrt(path_loss(distance, params.loss_direct())) * h


def synth_irs_user(rng: np.random.Generator, n_irs: int, n_paths: int,
                   distance: float, params: ChannelParams,
                   los_boost_db: float | None = None) -> np.ndarray:
    """Reflector-to-user vector for one user, optionally with a boosted path."""
    gains = complex_normal(rng, n_paths)
    if los_boost_db is not None:
        gains = boost_los(gains, los_boost_db)
    h = np.zeros(n_irs, dtype=complex)
    for q in range(n_paths):
        h += gains[q] * irs_response(
            rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi), n_irs, params.spacing
        )
    return np.sqrt(path_loss(distance, params.loss_irs())) * h


def sample_channel_set(rng: np.random.Generator, dims: SystemDims,
                       params: ChannelParams | None = None,
                       scenario: str = "B") -> ChannelSet:
    """Draw a full channel realization for one Monte Carlo trial.

    Scenario "A" boosts one path of the base-station-to-reflector link only;
    scenario "B" additionally boosts one path of every reflector-to-user
    vector. Users sit at a uniform radial distance from the reflector array
    with a uniform angle; their base-station distance follows from the
    triangle with the d_irs baseline.
    """
    params = params or ChannelParams()
    if scenario not in ("A", "B"):
        raise ValueError(f"sample_channel_set: unknown scenario {scenario!r}")
    h_bs = synth_bs_irs(rng, dims, params.q_irs, params.d_irs, params,
                        los_boost_db=params.los_margin_db)
    d_users = np.empty(dims.M)
    d_irs_users = np.empty(dims.M)
    h_bu = np.empty((dims.N, dims.M), dtype=complex)
    h_su = np.empty((dims.K, dims.M), dtype=complex)
    su_boost = params.los_margin_db if scenario == "B" else None
    for m in range(dims.M):
        d_prime = rng.uniform(*params.user_range)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        d_m = np.sqrt(params.d_irs**2 + d_prime**2
                      - 2.0 * params.d_irs * d_prime * np.cos(angle))
        d_users[m] = d_m
        d_irs_users[m] = d_prime
        h_bu[:, m] = synth_bs_user(rng, dims.N, params.q_direct, d_m, params)
        h_su[:, m] = synth_irs_user(rng, dims.K, params.q_irs_user, d_prime, params,
                                    los_boost_db=su_boost)
    return ChannelSet(h_bs, h_bu, h_su, params.d_irs, d_users, d_irs_users)


def perturb_csi(ch: ChannelSet, quality: CsiQuality | float,
                rng: np.random.Generator,
                params: ChannelParams | None = None) -> ChannelSet:
    """Estimated channels: kappa*H + sqrt((1-kappa^2)*L) * unit complex noise.

    The error variance of each link scales with that link's path loss.
    kappa = 1 returns the input unchanged (and consumes no randomness).
    """
    kappa = quality.kappa if isinstance(quality, CsiQuality) else CsiQuality(quality).kappa
    if kappa == 1.0:
        return ch
    params = params or ChannelParams()
    scale = np.sqrt(1.0 - kappa**2)
    h_bs = kappa * ch.H_bs + scale * np.sqrt(
        path_loss(ch.d_irs, params.loss_irs())
    ) * complex_normal(rng, *ch.H_bs.shape)
    h_bu = np.empty_like(ch.H_bu)
    h_su = np.empty_like(ch.H_su)
    for m in range(ch.H_bu.shape[1]):
        h_bu[:, m] = kappa * ch.H_bu[:, m] + scale * np.sqrt(
            path_loss(ch.d_users[m], params.loss_direct())
        ) * complex_normal(rng, ch.H_bu.shape[0])
        h_su[:, m] = kappa * ch.H_su[:, m] + scale * np.sqrt(
            path_loss(ch.d_irs_users[m], params.loss_irs())
        ) * complex_normal(rng, ch.H_su.shape[0])
    return replace(ch, H_bs=h_bs, H_bu=h_bu, H_su=h_su)


def save_channel_set(directory, ch: ChannelSet) -> None:
    """Write the three matrices in the text matrix format plus a geometry file."""
    os.makedirs(directory, exist_ok=True)
    save_matrix(os.path.join(directory, "h_bs.txt"), ch.H_bs)
    save_matrix(os.path.join(directory, "h_bu.txt"), ch.H_bu)
    save_matrix(os.path.join(directory, "h_su.txt"), ch.H_su)
    with open(os.path.join(directory, "geometry.txt"), "w") as fh:
        fh.write(f"{float(ch.d_irs)!r}\n")
        fh.write(" ".join(repr(float(d)) for d in ch.d_users) + "\n")
        fh.write(" ".join(repr(float(d)) for d in ch.d_irs_users) + "\n")


def load_channel_set(directory) -> ChannelSet:
    h_bs = load_matrix(os.path.join(directory, "h_bs.txt"))
    h_bu = load_matrix(os.path.join(directory, "h_bu.txt"))
    h_su = load_matrix(os.path.join(directory, "h_su.txt"))
    with open(os.path.join(directory, "geometry.txt")) as fh:
        d_irs = float(fh.readline())
        d_users = np.array([float(t) for t in fh.readline().split()])
        d_irs_users = np.array([float(t) for t in fh.readline().split()])
    ch = ChannelSet(h_bs, h_bu, h_su, d_irs, d_users, d_irs_users)
    ch.validate()
    return ch
