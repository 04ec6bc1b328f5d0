from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from irsbeam import altopt, channel, harness, linalg, metrics, precoding, vamp
from irsbeam.altopt import joint_optimize
from irsbeam.channel import (ChannelParams, ChannelSet, SystemDims, boost_los, complex_normal,
                             irs_response, perturb_csi, sample_channel_set, ula_response)
from irsbeam.harness import fixed_phase_design
from irsbeam.linalg import economy_svd
from irsbeam.metrics import nrmse, sum_rate
from irsbeam.precoding import effective_channel, mmse_precoder


def test_dims_validation():
    SystemDims(8, 2, 16)
    with pytest.raises(ValueError):
        SystemDims(2, 2, 16)  # M < N violated
    with pytest.raises(ValueError):
        SystemDims(8, 4, 3)  # K > M violated
    # a float fails, however whole; numpy integers pass
    for args, name in (((8.0, 2, 16), "N"), ((8, 2.5, 16), "M"), ((8, 2, 16.0), "K")):
        with pytest.raises(ValueError, match=f"^SystemDims: need an integer {name}, "):
            SystemDims(*args)
    SystemDims(np.int64(8), np.int32(2), np.int64(16))


def test_ula_broadside_is_all_ones():
    assert np.allclose(ula_response(np.pi / 2, 4, 0.5), np.ones(4))


def test_ula_single_element():
    assert np.allclose(ula_response(1.234, 1), [1.0])


def test_ula_closed_form_two_elements():
    out = ula_response(np.pi / 3, 2, 0.5)
    assert np.allclose(out, [1.0, 1j], atol=1e-15)


def test_ula_unit_modulus():
    rng = np.random.default_rng(0)
    for _ in range(20):
        out = ula_response(rng.uniform(0, 2 * np.pi), 8, 0.5)
        assert np.allclose(np.abs(out), 1.0)


def test_upa_normal_incidence():
    assert np.allclose(irs_response(0.0, 0.7, 4), np.ones(4))


def test_upa_pattern_null():
    # float pi/2 leaves cos at ~6e-17, so the amplitude sits at sqrt of that
    assert np.abs(irs_response(np.pi / 2, 0.3, 9)).max() < 1e-8


def test_upa_derived_value():
    got = irs_response(np.pi / 4, 0.0, 4, 0.5)
    u = np.sin(np.pi / 4)
    want = 2.0 ** -0.25 * np.kron([1.0, 1.0], [1.0, np.exp(1j * np.pi * u)])
    assert np.allclose(got, want, atol=1e-14)


def test_upa_modulus_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = rng.uniform(0, np.pi)
        out = irs_response(phi, rng.uniform(0, 2 * np.pi), 16)
        assert np.allclose(np.abs(out), np.sqrt(np.abs(np.cos(phi))), atol=1e-14)


def test_irs_response_nonsquare_fallback():
    out = irs_response(0.3, 0.4, 2)
    assert out.shape == (2,)
    assert np.allclose(np.abs(out), np.sqrt(np.abs(np.cos(0.3))))


def test_responses_reject_empty_arrays():
    with pytest.raises(ValueError, match=r"^irs_response: need k >= 1, got 0$"):
        irs_response(0.3, 0.4, 0)
    with pytest.raises(ValueError, match=r"^ula_response: need n >= 1, got 0$"):
        ula_response(0.3, 0)


def test_path_loss_reference_anchor():
    params = ChannelParams(c0=1e-3, d0=1.0)
    assert params.path_loss(1.0, 2.5) == pytest.approx(1e-3)


def test_path_loss_decays():
    params = ChannelParams(c0=1e-3, d0=1.0)
    assert params.path_loss(10.0, 2.5) == pytest.approx(3.1622776601683794e-06)


def test_path_loss_zero_exponent():
    params = ChannelParams(c0=1e-3, d0=1.0)
    for d in (0.5, 1.0, 100.0):
        assert params.path_loss(d, 0.0) == pytest.approx(1e-3)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        ChannelParams().path_loss(0.0, 2.5)


def test_boost_single_path_unchanged():
    assert np.allclose(boost_los(np.array([1.0 + 0j])), [1.0])


def test_boost_margin():
    out = boost_los(np.array([1.0 + 0j, 1.0 + 0j]), 5.0)
    assert abs(out[0]) == pytest.approx(10 ** (5 / 20))
    assert out[1] == 1.0


def test_boost_property_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        gains = complex_normal(rng, 6)
        out = boost_los(gains, 5.0)
        assert abs(out[0]) >= 10 ** (5 / 20) * np.abs(out[1:]).max() - 1e-12
        # phases preserved
        assert np.allclose(np.angle(out[1:]), np.angle(gains[1:]))
        if abs(gains[0]) > 0:
            assert np.angle(out[0]) == pytest.approx(np.angle(gains[0]))


def _rank(h: np.ndarray) -> int:
    w = np.linalg.svd(h, compute_uv=False)
    return int((w > 1e-12 * w[0]).sum())


def test_synth_bs_irs_single_path_rank_one():
    ch = sample_channel_set(np.random.default_rng(3), SystemDims(8, 2, 16),
                            ChannelParams(q_irs=1))
    assert _rank(ch.H_bs) == 1


def test_synth_bs_irs_rank_is_path_count():
    # rank caps at min(n_paths, K, N); with N=12 > 10 paths the cap is 10
    ch = sample_channel_set(np.random.default_rng(4), SystemDims(12, 2, 16))
    assert _rank(ch.H_bs) == 10
    ch = sample_channel_set(np.random.default_rng(5), SystemDims(8, 2, 16))
    assert _rank(ch.H_bs) == min(10, 16, 8)


def test_synth_bs_irs_frobenius_expectation():
    # E||H||_F^2 = L * K * N * E|cos(phi)| * sum_q E|c_q|^2 with E|cos| = 2/pi.
    # The boosted gain 0 has E|c_0|^2 = 10^(margin/10) * E max_{q>0} |c_q|^2,
    # and the largest of Q-1 unit exponentials has mean H_{Q-1} = sum_j 1/j.
    params = ChannelParams()
    dims = SystemDims(8, 2, 16)
    total = 0.0
    trials = 1000
    for s in range(trials):
        ch = sample_channel_set(np.random.default_rng(s), dims, params)
        total += np.linalg.norm(ch.H_bs) ** 2
    q = params.q_irs
    gain_power = q - 1 + 10 ** (params.los_margin_db / 10) * sum(1 / j for j in range(1, q))
    expect = params.path_loss(500.0, params.eta_irs) * 16 * 8 * (2 / np.pi) * gain_power
    assert abs(total / trials - expect) < 0.10 * expect


def test_synth_user_single_path_constant_modulus():
    # one path per user link: a single steering vector, so every entry of a
    # user's column has the same modulus
    ch = sample_channel_set(np.random.default_rng(6), SystemDims(8, 2, 16),
                            ChannelParams(q_direct=1, q_irs_user=1))
    for h in (ch.H_bu, ch.H_su):
        assert np.allclose(np.abs(h), np.abs(h[:1]))


def test_synth_reproducible():
    # a set takes a fixed run of draws: reseeding replays consecutive sets
    dims, params = SystemDims(6, 2, 12), ChannelParams()
    rng = np.random.default_rng(7)
    first = [sample_channel_set(rng, dims, params, "A") for _ in range(2)]
    rng = np.random.default_rng(7)
    again = [sample_channel_set(rng, dims, params, "A") for _ in range(2)]
    for a, b in zip(first, again):
        for name in ("H_bs", "H_bu", "H_su", "d_users", "d_irs_users"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(first[0].H_bs, first[1].H_bs)


def _per_path_reference(rng, dims: SystemDims, params: ChannelParams, scenario: str):
    """sample_channel_set as loops over users and paths: each path draws its
    angles with its own uniform calls and builds its responses one at a time."""
    def link(n_paths, loss, boost, shape, response):
        gains = complex_normal(rng, n_paths)
        if boost is not None:
            gains = boost_los(gains, boost)
        h = np.zeros(shape, dtype=complex)
        for q in range(n_paths):
            h += gains[q] * response()
        return np.sqrt(loss) * h

    def irs():
        return irs_response(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi), dims.K,
                            params.spacing)

    def ula():
        return ula_response(rng.uniform(0.0, 2.0 * np.pi), dims.N, params.spacing)

    h_bs = link(params.q_irs, params.path_loss(params.d_irs, params.eta_irs),
                params.los_margin_db, (dims.K, dims.N), lambda: np.outer(irs(), ula()))
    h_bu = np.empty((dims.N, dims.M), dtype=complex)
    h_su = np.empty((dims.K, dims.M), dtype=complex)
    d_users, d_irs_users = np.empty(dims.M), np.empty(dims.M)
    for m in range(dims.M):
        d_prime = rng.uniform(params.user_min, params.user_max)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        d_m = np.sqrt(params.d_irs**2 + d_prime**2
                      - 2.0 * params.d_irs * d_prime * np.cos(angle))
        d_users[m], d_irs_users[m] = d_m, d_prime
        h_bu[:, m] = link(params.q_direct, params.path_loss(d_m, params.eta_direct), None,
                          dims.N, ula)
        h_su[:, m] = link(params.q_irs_user, params.path_loss(d_prime, params.eta_irs),
                          params.los_margin_db if scenario == "B" else None, dims.K, irs)
    return h_bs, h_bu, h_su, d_users, d_irs_users


@pytest.mark.parametrize("k", [4, 7, 12, 64])
def test_synthesis_matches_per_path_reference(k):
    # K = 7 and 12 take the non-square grid; the generator must also be left
    # in the same state, so the next draw from it lines up
    dims = SystemDims(6, 3, k)
    for params in (ChannelParams(), ChannelParams(q_irs=3, q_direct=1, q_irs_user=4)):
        for scenario in ("A", "B"):
            for seed in range(6):
                rng_got, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                ch = sample_channel_set(rng_got, dims, params, scenario)
                ref = _per_path_reference(rng_ref, dims, params, scenario)
                got = (ch.H_bs, ch.H_bu, ch.H_su, ch.d_users, ch.d_irs_users)
                for name, a, b in zip(("H_bs", "H_bu", "H_su", "d_users", "d_irs_users"),
                                      got, ref):
                    assert np.array_equal(a, b), (name, scenario, seed)
                assert rng_got.bit_generator.state == rng_ref.bit_generator.state


def test_synth_users_independent():
    # the direct links of two users of one set are uncorrelated
    dims = SystemDims(8, 2, 16)
    trials = 400
    acc = 0.0
    for s in range(trials):
        h = sample_channel_set(np.random.default_rng(s), dims).H_bu
        acc += np.vdot(h[:, 0], h[:, 1]) / (np.linalg.norm(h[:, 0]) * np.linalg.norm(h[:, 1]))
    assert abs(acc / trials) < 4 / np.sqrt(trials)


def test_sample_channel_set_shapes_and_determinism():
    dims = SystemDims(8, 2, 16)
    ch1 = sample_channel_set(np.random.default_rng(9), dims, scenario="B")
    ch2 = sample_channel_set(np.random.default_rng(9), dims, scenario="B")
    assert ch1.dims == (8, 2, 16)
    assert np.array_equal(ch1.H_bs, ch2.H_bs)
    assert np.array_equal(ch1.H_bu, ch2.H_bu)
    assert np.array_equal(ch1.H_su, ch2.H_su)
    assert np.all((ch1.d_irs_users >= 10) & (ch1.d_irs_users <= 50))
    # base-station distance follows from the 500 m baseline triangle
    assert np.all(ch1.d_users >= 450) and np.all(ch1.d_users <= 550)
    with pytest.raises(ValueError, match="^sample_channel_set: unknown scenario 'C'$"):
        sample_channel_set(np.random.default_rng(9), dims, scenario="C")
    # a set whose links disagree in size or hold a non-finite entry is not built
    with pytest.raises(ValueError, match="^ChannelSet: inconsistent shapes$"):
        replace(ch1, H_su=ch1.H_su[:-1])
    h_bu = ch1.H_bu.copy()
    h_bu[0, 1] = np.inf
    with pytest.raises(ValueError, match="^ChannelSet: non-finite entries$"):
        replace(ch1, H_bu=h_bu)


def test_channel_set_refuses_to_build_with_mismatched_or_non_finite_links():
    rng = np.random.default_rng(23)
    links = {"H_bs": complex_normal(rng, 9, 4), "H_bu": complex_normal(rng, 4, 2),
             "H_su": complex_normal(rng, 9, 2)}
    ch = ChannelSet(**links)
    # H_bu sets (N, M) = (4, 2) and H_bs sets K = 9; each other size must agree
    for name, shape in (("H_bs", (8, 4)), ("H_bs", (9, 3)), ("H_su", (8, 2)),
                        ("H_su", (9, 3)), ("H_bu", (4, 3)), ("H_bu", (5, 2))):
        bad = complex_normal(rng, *shape)
        with pytest.raises(ValueError, match="^ChannelSet: inconsistent shapes$"):
            ChannelSet(**{**links, name: bad})
        with pytest.raises(ValueError, match="^ChannelSet: inconsistent shapes$"):
            replace(ch, **{name: bad})
    for name in links:
        for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)):
            bad = links[name].copy()
            bad[-1, 1] = value
            with pytest.raises(ValueError, match="^ChannelSet: non-finite entries$"):
                ChannelSet(**{**links, name: bad})
            with pytest.raises(ValueError, match="^ChannelSet: non-finite entries$"):
                replace(ch, **{name: bad})


def test_scenarios_differ_only_in_user_link_boost():
    dims = SystemDims(8, 2, 16)
    ch_a = sample_channel_set(np.random.default_rng(10), dims, scenario="A")
    ch_b = sample_channel_set(np.random.default_rng(10), dims, scenario="B")
    assert np.array_equal(ch_a.H_bs, ch_b.H_bs)
    assert np.array_equal(ch_a.H_bu, ch_b.H_bu)
    assert not np.array_equal(ch_a.H_su, ch_b.H_su)


def test_csi_quality_range():
    ch = sample_channel_set(np.random.default_rng(11), SystemDims(4, 2, 9))
    for kappa in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="kappa"):
            perturb_csi(ch, kappa, np.random.default_rng(0))


def test_perturb_identity_at_kappa_one():
    dims = SystemDims(8, 2, 16)
    ch = sample_channel_set(np.random.default_rng(11), dims)
    out = perturb_csi(ch, 1.0, np.random.default_rng(0))
    assert np.array_equal(out.H_bs, ch.H_bs)
    assert np.array_equal(out.H_bu, ch.H_bu)
    assert np.array_equal(out.H_su, ch.H_su)


def test_perturb_kappa_zero_variance():
    # the error variance at kappa = 0 is the path loss of the constants the
    # set was drawn with: 1.79e-10 for H_bs by default, 1.79e-9 at c0 = 1e-2
    dims = SystemDims(4, 2, 9)
    for params, level in ((ChannelParams(), 1.789e-10), (ChannelParams(c0=1e-2), 1.789e-9)):
        ch = sample_channel_set(np.random.default_rng(12), dims, params)
        assert ch.params == params
        assert params.path_loss(params.d_irs, params.eta_irs) == pytest.approx(level, rel=1e-3)
        rng = np.random.default_rng(13)
        acc = 0.0
        draws = 800
        for _ in range(draws):
            out = perturb_csi(ch, 0.0, rng)
            assert out.params == params
            acc += np.mean(np.abs(out.H_bs) ** 2)
        assert abs(acc / draws - level) < 0.05 * level


def test_perturb_refuses_a_set_without_constants():
    rng = np.random.default_rng(18)
    ch = ChannelSet(complex_normal(rng, 9, 4), complex_normal(rng, 4, 2),
                    complex_normal(rng, 9, 2), np.full(2, 500.0), np.full(2, 30.0))
    with pytest.raises(ValueError, match="propagation constants"):
        perturb_csi(ch, 0.9, np.random.default_rng(0))
    # perfect knowledge needs no error variance
    assert perturb_csi(ch, 1.0, np.random.default_rng(0)) is ch


def test_perturb_error_variance_tracks_kappa():
    # the error variance follows the path loss of the constants the channel
    # was drawn with, the non-default reference gain included
    dims = SystemDims(4, 2, 9)
    for params in (ChannelParams(), ChannelParams(c0=1e-2)):
        ch = sample_channel_set(np.random.default_rng(14), dims, params)
        kappa = 0.85
        rng = np.random.default_rng(15)
        acc = 0.0
        draws = 1000
        for _ in range(draws):
            out = perturb_csi(ch, kappa, rng)
            acc += np.mean(np.abs(out.H_bs - kappa * ch.H_bs) ** 2)
        want = (1 - kappa**2) * params.path_loss(params.d_irs, params.eta_irs)
        assert abs(acc / draws - want) < 0.05 * want


def test_without_direct_link():
    dims = SystemDims(8, 2, 16)
    ch = sample_channel_set(np.random.default_rng(17), dims)
    bare = ch.without_direct_link()
    assert not np.any(bare.H_bu)
    assert np.array_equal(bare.H_bs, ch.H_bs)


@pytest.mark.parametrize("field", ["d_users", "d_irs_users"])
def test_perturb_refuses_distances_that_miss_users(field):
    rng = np.random.default_rng(19)
    ch = ChannelSet(complex_normal(rng, 9, 4), complex_normal(rng, 4, 2),
                    complex_normal(rng, 9, 2), np.full(2, 500.0), np.full(2, 30.0),
                    ChannelParams())
    assert perturb_csi(ch, 0.9, rng).dims == ch.dims
    # the empty default of a hand-built set, one distance for two users, a column
    for distances in (np.zeros(0), np.full(1, 40.0), np.full((2, 1), 40.0)):
        with pytest.raises(ValueError, match=f"ChannelSet.{field} .*M = 2"):
            perturb_csi(replace(ch, **{field: distances}), 0.9, rng)


def test_channel_set_is_frozen():
    ch = sample_channel_set(np.random.default_rng(20), SystemDims(4, 2, 9))
    with pytest.raises(FrozenInstanceError):
        ch.H_su = np.zeros_like(ch.H_su)
    with pytest.raises(FrozenInstanceError):
        ch.params = None


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_own_conjugates(ch):
    """Each cached conjugate is its own link's .conj().T, bit for bit and in
    the same layout, read-only, and taken once."""
    for link in ("H_su", "H_bu"):
        want = getattr(ch, link).conj().T
        got = getattr(ch, link + "_H")
        assert got is getattr(ch, link + "_H")
        assert got.shape == want.shape and got.strides == want.strides
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert np.array_equal(bits(got), bits(want))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 0.0


def test_derived_sets_carry_their_own_conjugates():
    ch = sample_channel_set(np.random.default_rng(21), SystemDims(4, 2, 9))
    # fill the parent's cache first, so a set that inherited it would show;
    # the rank factor of H_bs and the SVD of H_su^H are cached the same way
    assert_own_conjugates(ch)
    factor = ch.H_bs_factor
    svd_su = ch.H_su_H_svd
    rng = np.random.default_rng(22)
    derived = {
        "replace": replace(ch, H_su=complex_normal(rng, 9, 2), H_bu=complex_normal(rng, 4, 2),
                           H_bs=complex_normal(rng, 9, 4)),
        "perturb_csi": perturb_csi(ch, 0.9, rng),
        "without_direct_link": ch.without_direct_link(),
    }
    for name, out in derived.items():
        assert_own_conjugates(out)
        assert out.H_bu_H is not ch.H_bu_H, name
        assert not np.array_equal(out.H_bu_H, ch.H_bu_H), name
        q, r = out.H_bs_factor
        assert q is not factor[0] and r is not factor[1], name
        assert np.linalg.norm(q @ r - out.H_bs) <= 1e-12 * np.linalg.norm(out.H_bs), name
        svd = out.H_su_H_svd
        assert svd is not svd_su and svd.Vh is not svd_su.Vh, name
        assert not any(a.flags.writeable for a in (svd.U, svd.omega, svd.Vh, svd.vh_modulus))
        assert np.linalg.norm(svd.reconstruct() - out.H_su_H) <= \
            1e-12 * np.linalg.norm(out.H_su_H), name
    assert not np.any(derived["without_direct_link"].H_bu_H)
    # the direct link's removal keeps H_bs and H_su, and so their SVDs' values
    q, r = derived["without_direct_link"].H_bs_factor
    assert np.array_equal(q, factor[0]) and np.array_equal(r, factor[1])
    kept = derived["without_direct_link"].H_su_H_svd
    for name in ("U", "omega", "Vh"):
        assert np.array_equal(bits(getattr(kept, name)), bits(getattr(svd_su, name))), name


@pytest.mark.parametrize("dims, params, rank", [
    (SystemDims(32, 4, 256), None, 10),               # paper scale: 10 paths < N
    (SystemDims(8, 2, 16), None, 8),                  # N < 10 paths
    (SystemDims(16, 2, 9), None, 9),                  # K < 10 paths < N
    (SystemDims(8, 2, 16), ChannelParams(q_irs=1), 1)])
def test_rank_factor_of_the_station_surface_link(dims, params, rank):
    # H_bs = Q_r R_r with orthonormal columns of Q_r, r = min(paths, N, K),
    # both read-only and taken once per set
    ch = sample_channel_set(np.random.default_rng(dims.N + dims.K), dims, params)
    q, r = ch.H_bs_factor
    assert ch.H_bs_factor[0] is q and ch.H_bs_factor[1] is r
    assert q.shape == (dims.K, rank) and r.shape == (rank, dims.N)
    assert np.abs(q.conj().T @ q - np.eye(rank)).max() <= 1e-12
    assert np.linalg.norm(q @ r - ch.H_bs) <= 1e-12 * np.linalg.norm(ch.H_bs)
    assert not q.flags.writeable and not r.flags.writeable


def test_rank_factor_is_taken_once_per_set(monkeypatch):
    # a gated solve through its switch, a second solve on the same set, both
    # scores and both fixed-phase baselines share one SVD of H_bs and one of
    # H_su^H; with both taken, a warm solve's iterations factor nothing
    taken, steps = [], []
    svd = linalg.economy_svd

    def counted(a):
        taken.append(a)
        return svd(a)

    class CountedStep(altopt.VampStep):
        def __init__(self, *args):
            steps.append(self)
            super().__init__(*args)

    # every module a solve, a score or a baseline runs through, bound or not
    for module in (altopt, channel, harness, linalg, metrics, precoding, vamp):
        monkeypatch.setattr(module, "economy_svd", counted, raising=False)
    monkeypatch.setattr(altopt, "VampStep", CountedStep)
    ch = sample_channel_set(np.random.default_rng(23), SystemDims(8, 2, 16))
    sol = joint_optimize(ch, 1.0, 1e-13, None, np.random.default_rng(24))
    # the gate fired, and the switch built the second message-passing step
    assert len(steps) == 2 and sol.iterations > 1
    assert sorted(map(id, taken)) == sorted(map(id, (ch.H_bs, ch.H_su_H)))
    warm = joint_optimize(ch, 1.0, 1e-13, None, np.random.default_rng(25))
    assert len(steps) == 4 and warm.iterations > 1
    for design in (sol, warm):
        sum_rate(ch, design.upsilon, design.F, 1e-13)
        nrmse(design.alpha, design.upsilon, design.F, ch, 1e-13)
    fixed_phase_design(ch, np.zeros(16, complex), 1.0, 1e-13)
    fixed_phase_design(ch, np.exp(2j * np.pi * np.random.default_rng(26).random(16)),
                       1.0, 1e-13)
    assert len(taken) == 2


@pytest.mark.parametrize("dims", [SystemDims(8, 2, 16), SystemDims(32, 4, 256),
                                  SystemDims(4, 3, 4)])
def test_surface_svd_is_the_read_only_svd_of_its_conjugate(dims):
    # the cached SVD of H_su^H holds the bits and layout of economy_svd on
    # the cached conjugate, is taken once, and every array of it is read-only
    ch = sample_channel_set(np.random.default_rng(dims.K + 1), dims)
    got = ch.H_su_H_svd
    assert ch.H_su_H_svd is got
    want = economy_svd(ch.H_su_H)
    for name in ("U", "omega", "Vh", "vh_modulus"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.strides == b.strides, name
        assert np.array_equal(bits(a), bits(b)), name
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_zero_station_surface_link_has_an_empty_factor():
    # r = 0: the effective channel is exactly the direct link, so the
    # no-IRS baseline is the precoder on H_bu; the phase solver refuses
    rng = np.random.default_rng(27)
    ch = ChannelSet(np.zeros((9, 4), complex), complex_normal(rng, 4, 2),
                    complex_normal(rng, 9, 2))
    q, r = ch.H_bs_factor
    assert q.shape == (9, 0) and r.shape == (0, 4)
    for ups in (np.zeros(9, complex), np.exp(2j * np.pi * rng.random(9))):
        assert np.array_equal(effective_channel(ch, ups), ch.H_bu)
    design = fixed_phase_design(ch, np.zeros(9, complex), 1.0, 0.1)
    want = mmse_precoder(ch.H_bu, 1.0, 0.1)
    assert np.array_equal(design.F, want.F) and design.alpha == want.alpha
    with pytest.raises(ValueError, match="^prepare_system: zero system"):
        joint_optimize(ch, 1.0, 0.1, None, rng)
