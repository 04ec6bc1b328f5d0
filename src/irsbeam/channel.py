"""Path-based downlink channel synthesis.

Three links are modeled: the reflector-array-to-base-station matrix H_bs
(K x N), the direct base-station-to-user matrix H_bu (N x M), and the
reflector-array-to-user matrix H_su (K x M). Each link is a sum of a few
paths, one path optionally boosted to sit a fixed margin above the rest to
act as the line-of-sight component; one synthesizer builds every link. All
randomness flows through an explicit numpy Generator, so a trial is a
deterministic function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Integral

import numpy as np

from .linalg import EconomySVD, economy_svd


@dataclass(frozen=True)
class SystemDims:
    """Array sizes: N transmit antennas, M single-antenna users, K reflectors."""

    N: int
    M: int
    K: int

    def __post_init__(self):
        # numpy integers pass; a float fails, however whole
        for name in ("N", "M", "K"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"SystemDims: need an integer {name}, "
                                 f"got {getattr(self, name)!r}")
        if not (0 < self.M < self.N):
            raise ValueError(f"SystemDims: need 0 < M < N, got M={self.M}, N={self.N}")
        if self.K <= self.M:
            raise ValueError(f"SystemDims: need K > M, got K={self.K}, M={self.M}")


@dataclass(frozen=True)
class ChannelParams:
    """Propagation constants for the three links; the spec file's channel keys.

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
    user_min: float = 10.0
    user_max: float = 50.0
    spacing: float = 0.5
    los_margin_db: float = 5.0

    def __post_init__(self):
        # each rule is written so that NaN fails it; a user's squared distance
        # from the station is at most (d_irs + user_max)**2, which must not
        # overflow, and d_irs is checked first, so the sum itself cannot
        root_max = np.sqrt(np.finfo(float).max)
        rules = (
            (("c0", "d0", "spacing", "user_min"),
             lambda v: 0.0 < v < np.inf, "positive and finite"),
            (("d_irs",), lambda v: 0.0 < v < root_max, "positive with a finite square"),
            (("user_max",), lambda v: self.user_min <= v and self.d_irs + v < root_max,
             ">= user_min with (d_irs + user_max)**2 finite"),
            (("eta_irs", "eta_direct"), lambda v: 0.0 <= v < np.inf, "non-negative and finite"),
            (("los_margin_db",), lambda v: -np.inf < v < np.inf, "finite"),
            (("q_irs", "q_direct", "q_irs_user"), lambda v: isinstance(v, Integral) and v >= 1,
             "an integer >= 1"),
        )
        for names, ok, rule in rules:
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ValueError(f"{name}: must be {rule}, got {name} = {value}")

    def path_loss(self, d: float, exponent: float) -> float:
        """Linear power gain c0 * (d/d0)**(-exponent) at distance d > 0."""
        if d <= 0:
            raise ValueError(f"path_loss: distance must be positive, got {d}")
        return self.c0 * (d / self.d0) ** (-exponent)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization plus the geometry it was drawn at.

    H_bs: K x N, H_bu: N x M, H_su: K x M. d_users and d_irs_users hold the
    per-user base-station and reflector-array distances used for path loss;
    params holds the propagation constants of sample_channel_set, the
    station-surface distance d_irs among them, None for a set built by hand.

    The set is frozen and checked when built: the links must agree in size
    and hold finite entries. A changed channel is a new set
    (dataclasses.replace), checked again, so its caches, taken on first use
    and kept with read-only arrays, always belong to the set's own links: the
    conjugate transposes H_su_H and H_bu_H, the rank factor H_bs_factor and
    the SVD H_su_H_svd. Write into a link's array in place and they go
    stale, and the build-time check no longer holds.
    """

    H_bs: np.ndarray
    H_bu: np.ndarray
    H_su: np.ndarray
    d_users: np.ndarray = field(default_factory=lambda: np.zeros(0))
    d_irs_users: np.ndarray = field(default_factory=lambda: np.zeros(0))
    params: ChannelParams | None = None

    def __post_init__(self):
        n, m, k = self.dims
        if self.H_bs.shape != (k, n) or self.H_su.shape != (k, m):
            raise ValueError("ChannelSet: inconsistent shapes")
        for h in (self.H_bs, self.H_bu, self.H_su):
            if not np.all(np.isfinite(h)):
                raise ValueError("ChannelSet: non-finite entries")

    @property
    def dims(self) -> tuple[int, int, int]:
        """(N, M, K)"""
        return self.H_bu.shape[0], self.H_bu.shape[1], self.H_bs.shape[0]

    @cached_property
    def H_su_H(self) -> np.ndarray:
        """H_su^H, M x K, read-only; the layout of H_su.conj().T."""
        return _read_only(self.H_su.conj().T)

    @cached_property
    def H_bu_H(self) -> np.ndarray:
        """H_bu^H, M x N, read-only; the layout of H_bu.conj().T."""
        return _read_only(self.H_bu.conj().T)

    @cached_property
    def H_bs_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q_r, R_r) with H_bs = Q_r R_r, both read-only: (U, diag(omega) Vh)
        of H_bs's truncated economy SVD. Q_r is K x r with orthonormal
        columns, r = rank(H_bs) is at most min(paths, N, K), 10 at paper
        scale against N = 32, and a zero H_bs gives r = 0. It is the one way
        H_bs enters the solver: precoding.effective_channel and
        altopt.phase_system's B = (H_bs F)^T both run at width r through it."""
        svd = economy_svd(self.H_bs)
        return _read_only(svd.U), _read_only(svd.omega[:, None] * svd.Vh)

    @cached_property
    def H_su_H_svd(self) -> EconomySVD:
        """economy_svd(H_su_H), with U, omega, Vh and |Vh|^2 (vh_modulus)
        read-only. altopt.phase_system's A = alpha H_su^H changes only
        through alpha, so every phase system on the set rescales this one SVD
        (EconomySVD.scaled) rather than factoring H_su^H again."""
        svd = economy_svd(self.H_su_H)
        for a in (svd.U, svd.omega, svd.Vh, svd.vh_modulus):
            _read_only(a)
        return svd

    def without_direct_link(self) -> "ChannelSet":
        """Copy with the base-station-to-user block zeroed."""
        return replace(self, H_bu=np.zeros_like(self.H_bu))


def complex_normal(rng: np.random.Generator, *shape) -> np.ndarray:
    """Circularly symmetric unit-variance complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _steer(n: int, u: np.ndarray, spacing_ratio: float) -> np.ndarray:
    """Steering vectors exp(2j*pi*ratio*k*u) for every direction cosine in u,
    one row per entry of u (len(u) x n)."""
    return np.exp(2j * np.pi * spacing_ratio * np.arange(n) * u[:, None])


def ula_response(phi: float, n: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Uniform-linear-array steering vector, entry k = exp(2j*pi*ratio*k*cos(phi))."""
    if n < 1:
        raise ValueError(f"ula_response: need n >= 1, got {n}")
    return _steer(n, np.cos(np.array([phi])), spacing_ratio)[0]


def _planar_factors(k: int) -> tuple[int, int]:
    """Factor the reflector count into a rows x cols grid, square when K is a
    perfect square, otherwise the most-square divisor pair (1 x K worst case)."""
    r = int(np.sqrt(k))
    while r > 1 and k % r:
        r -= 1
    return r, k // r


def _irs_responses(phi: np.ndarray, psi: np.ndarray, k: int,
                   spacing_ratio: float) -> np.ndarray:
    """Planar responses, one row (K entries, row-major rows x cols grid) per
    (phi, psi) pair."""
    rows, cols = _planar_factors(k)
    amp = np.sqrt(np.abs(np.cos(phi)))
    v_rows = _steer(rows, np.sin(phi) * np.sin(psi), spacing_ratio)
    v_cols = _steer(cols, np.sin(phi) * np.cos(psi), spacing_ratio)
    grid = v_rows[:, :, None] * v_cols[:, None, :]
    return amp[:, None] * grid.reshape(len(phi), k)


def irs_response(phi: float, psi: float, k: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Uniform-planar-array response with the cosine element pattern.

    sqrt|cos phi| times the Kronecker product of a rows- and a cols-element
    steering vector (elevation phi against the array normal, azimuth psi).
    The grid is sqrt(K) x sqrt(K) when K is a perfect square, otherwise the
    most-square divisor pair (1 x K at worst). Every entry has modulus
    sqrt|cos phi|; the pattern nulls out at phi = pi/2.
    """
    if k < 1:
        raise ValueError(f"irs_response: need k >= 1, got {k}")
    return _irs_responses(np.array([phi]), np.array([psi]), k, spacing_ratio)[0]


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


def _synth_link(rng: np.random.Generator, n_paths: int, n_angles: int, respond,
                loss: float, los_boost_db: float | None = None) -> np.ndarray:
    """One link, sqrt(loss) * sum_q c_q a_q over n_paths paths.

    The gains c_q are unit complex normal (gain 0 boosted by los_boost_db
    when given). Then one row of n_angles uniform [0, 1) draws per path is
    drawn, and `respond` maps those rows to the responses a_q, one per row.
    """
    gains = complex_normal(rng, n_paths)
    if los_boost_db is not None:
        gains = boost_los(gains, los_boost_db)
    a = respond(rng.random((n_paths, n_angles)))
    h = np.zeros(a.shape[1:], dtype=complex)
    for q in range(n_paths):
        h += gains[q] * a[q]
    return np.sqrt(loss) * h


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

    # draws in [0, 1) scale to elevations on [0, pi), azimuths and departure
    # angles on [0, 2pi); hi * random() equals uniform(0, hi) exactly
    def irs(u):
        return _irs_responses(np.pi * u[:, 0], 2.0 * np.pi * u[:, 1], dims.K, params.spacing)

    def bs(u):
        # the departure angle is the last draw of a row
        return _steer(dims.N, np.cos(2.0 * np.pi * u[:, -1]), params.spacing)

    h_bs = _synth_link(rng, params.q_irs, 3, lambda u: irs(u)[:, :, None] * bs(u)[:, None, :],
                       params.path_loss(params.d_irs, params.eta_irs), params.los_margin_db)
    d_users = np.empty(dims.M)
    d_irs_users = np.empty(dims.M)
    h_bu = np.empty((dims.N, dims.M), dtype=complex)
    h_su = np.empty((dims.K, dims.M), dtype=complex)
    su_boost = params.los_margin_db if scenario == "B" else None
    for m in range(dims.M):
        d_prime = rng.uniform(params.user_min, params.user_max)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        d_m = np.sqrt(params.d_irs**2 + d_prime**2
                      - 2.0 * params.d_irs * d_prime * np.cos(angle))
        d_users[m] = d_m
        d_irs_users[m] = d_prime
        h_bu[:, m] = _synth_link(rng, params.q_direct, 1, bs,
                                 params.path_loss(d_m, params.eta_direct))
        h_su[:, m] = _synth_link(rng, params.q_irs_user, 2, irs,
                                 params.path_loss(d_prime, params.eta_irs), su_boost)
    return ChannelSet(h_bs, h_bu, h_su, d_users, d_irs_users, params)


def perturb_csi(ch: ChannelSet, kappa: float, rng: np.random.Generator) -> ChannelSet:
    """Estimated channels: kappa*H + sqrt((1-kappa^2)*L) * unit complex noise.

    kappa in [0, 1] is the channel-estimation accuracy, 1 meaning perfect
    knowledge. The error variance of each link scales with that link's path
    loss, taken from the propagation constants the channel set records
    (ch.params), so a set without them is refused for kappa < 1. kappa = 1
    returns the input unchanged (and consumes no randomness).
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"perturb_csi: kappa must lie in [0, 1], got {kappa}")
    if kappa == 1.0:
        return ch
    params = ch.params
    if params is None:
        raise ValueError("perturb_csi: the channel set records no propagation constants "
                         "(ChannelSet.params), so the error variance is unknown")
    users = ch.H_bu.shape[1]
    for name in ("d_users", "d_irs_users"):
        shape = np.shape(getattr(ch, name))
        if shape != (users,):
            raise ValueError(f"perturb_csi: ChannelSet.{name} must hold one distance per "
                             f"user (M = {users}), got shape {shape}")
    scale = np.sqrt(1.0 - kappa**2)

    def estimate(h, d, eta):
        """kappa*h plus noise drawn at the path loss of distance d, exponent eta."""
        noise = complex_normal(rng, *h.shape)
        return kappa * h + scale * np.sqrt(params.path_loss(d, eta)) * noise

    h_bs = estimate(ch.H_bs, params.d_irs, params.eta_irs)
    h_bu = np.empty_like(ch.H_bu)
    h_su = np.empty_like(ch.H_su)
    for m in range(users):
        h_bu[:, m] = estimate(ch.H_bu[:, m], ch.d_users[m], params.eta_direct)
        h_su[:, m] = estimate(ch.H_su[:, m], ch.d_irs_users[m], params.eta_irs)
    return replace(ch, H_bs=h_bs, H_bu=h_bu, H_su=h_su)
