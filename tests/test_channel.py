"""Correlation builders, path loss, selection, channel sampling."""

import numpy as np
import pytest
from scipy.linalg import sqrtm

from fasris import (ChannelSampler, CorrelationSet, DegenerateGridError,
                    Dimensions, PathLossParams, PlanarFasGeometry,
                    RisAngularProfile, Scenario, db2lin,
                    effective_ris_correlation, embed_selection,
                    fas_correlation_matrix, path_loss, phase_matrix,
                    ris_correlation_matrices, ris_correlation_matrix,
                    select_submatrix, trial_rng)
from fasris import channel
from fasris.channel import ConstraintError, PrecisionError, psd_sqrt
from fasris.scenarios import (bs_user_distance, cascaded_gain, direct_gain,
                              fig1_scenario, fig3_scenario,
                              random_correlation)

GEOM = PlanarFasGeometry(W_x=2.0, W_y=2.0, N_x=10, N_y=10)


def spherical_j0_series(x, terms=60):
    """Independent oracle: j0(x) = sum_n (-1)^n x^(2n) / (2n+1)!."""
    total, term = 0.0, 1.0
    for n in range(terms):
        total += term
        term *= -x * x / ((2 * n + 2) * (2 * n + 3))
    return total


def eigh_check_psd(A, tol=channel.PSD_TOL):
    """Reference: check_psd decided by the eigenvalue test alone."""
    A = channel.herm(np.asarray(A))
    w, V = np.linalg.eigh(A)
    if w.min() < -tol * max(1.0, abs(w.max())):
        raise channel.DomainError("not PSD")
    if w.min() < 0.0:
        A = channel.herm((V * np.clip(w, 0.0, None)) @ V.conj().T)
    return A


def with_spectrum(w, rng):
    """Dense Hermitian Q diag(w) Q^H with a random unitary Q."""
    n = len(w)
    Q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    return (Q * w) @ Q.conj().T


def at_margin(factor, rest):
    """Spectrum whose lam_min is factor times the certificate's shift
    tol max(1, tr A), with tr A counting lam_min itself."""
    tol = channel.PSD_TOL
    lam = factor * tol * rest.sum() / (1.0 - factor * tol)
    return np.concatenate(([lam], rest))


class TestCheckPsd:
    REST = np.linspace(1.0, 2.0, 39)

    @pytest.mark.parametrize("case, eigh, outcome", [
        ("well_conditioned", 0, "kept"),
        ("roundoff_rank_deficient", 1, "kept"),
        ("clips", 1, "clipped"),
        ("raises", 1, "raises"),
        ("margin_above", 0, "kept"),
        ("margin_below", 1, "kept"),
    ])
    def test_matches_eigh_reference(self, rng, eigh_calls, case, eigh,
                                    outcome):
        scale = self.REST.max()
        A = {
            "well_conditioned": lambda: with_spectrum(
                np.concatenate(([0.5], self.REST)), rng),
            # the decoupled 1e-16 is an exact eigenvalue of the block matrix
            "roundoff_rank_deficient": lambda: np.block(
                [[np.full((1, 1), 1e-16), np.zeros((1, 39))],
                 [np.zeros((39, 1)), with_spectrum(self.REST, rng)]]),
            "clips": lambda: with_spectrum(
                np.concatenate(([-1e-12 * scale], self.REST)), rng),
            "raises": lambda: with_spectrum(np.concatenate(
                ([-10.0 * channel.PSD_TOL * scale], self.REST)), rng),
            "margin_above": lambda: with_spectrum(
                at_margin(1.0 + 1e-3, self.REST), rng),
            "margin_below": lambda: with_spectrum(
                at_margin(1.0 - 1e-3, self.REST), rng),
        }[case]()
        if outcome == "raises":
            with pytest.raises(channel.DomainError, match="not PSD"):
                channel.check_psd(A)
            assert len(eigh_calls) == eigh
            with pytest.raises(channel.DomainError):
                eigh_check_psd(A)
            return
        got = channel.check_psd(A)
        assert len(eigh_calls) == eigh
        assert got.tobytes() == eigh_check_psd(A).tobytes()
        assert (got.tobytes() == channel.herm(A).tobytes()) == (outcome == "kept")

    @pytest.mark.parametrize("entry", [(0, 1, np.nan), (0, 0, np.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_input_raises_before_arithmetic(self, eigh_calls,
                                                       entry):
        # a NaN can pass through LAPACK's Cholesky and eigh without an
        # error, and an inf trace makes the certificate's shift inf * 0,
        # whose RuntimeWarning the suite raises as an error
        i, j, value = entry
        A = np.eye(3)
        A[i, j] = A[j, i] = value
        with pytest.raises(channel.DomainError, match="non-finite"):
            channel.check_psd(A)
        assert not eigh_calls
        with pytest.raises(channel.DomainError):
            psd_sqrt(A)

    def test_fig1_set_up_is_certified(self, eigh_calls):
        fig1_scenario(24, 80.0)
        assert len(eigh_calls) <= 2      # 26 matrices, each checked twice

    def test_fig3_checks_a_duplicate_f_tot_once(self, monkeypatch):
        names = []

        def recorded(A, name="matrix", *args, _check=channel.check_psd, **kw):
            names.append(name)
            return _check(A, name, *args, **kw)

        monkeypatch.setattr(channel, "check_psd", recorded)
        corr = fig3_scenario(80.0)[0].correlations
        assert names == ["FAS correlation matrix", "RIS correlation matrix",
                         "RIS correlation matrix", "R_tot", "C_L", "C_R"]
        assert corr.F_tot is not corr.R_tot
        assert corr.F_tot.tobytes() == corr.R_tot.tobytes()
        R = fas_correlation_matrix(GEOM)
        other = CorrelationSet(R_tot=R, F_tot=R + 0.0 * 1j, C_L=corr.C_L,
                               C_R=corr.C_R)    # equal values, other bytes
        assert names.count("F_tot") == 1
        assert other.F_tot.tobytes() == channel.check_psd(R + 0.0 * 1j).tobytes()


class TestFasCorrelation:
    def test_unit_diagonal(self):
        R = fas_correlation_matrix(GEOM)
        assert np.allclose(np.diag(R), 1.0, atol=1e-14)

    def test_adjacent_same_row_value(self):
        # adjacent ports in the same column differ by one grid step: the
        # argument is 2*pi * W/(N-1) = 2*pi*2/9
        R = fas_correlation_matrix(GEOM)
        expected = spherical_j0_series(2.0 * np.pi * 2.0 / 9.0)
        assert abs(R[0, 1] - expected) < 1e-12

    def test_psd_for_planar_grid(self):
        R = fas_correlation_matrix(GEOM)
        assert np.linalg.eigvalsh(R).min() >= -1e-10

    def test_translation_invariance(self):
        # entries depend on coordinate differences only: ports (0,1) sit one
        # row apart in column 0; ports (N_y, N_y+1) are the same pair in
        # column 1
        R = fas_correlation_matrix(GEOM)
        n = GEOM.N_y
        assert abs(R[0, 1] - R[n, n + 1]) < 1e-15
        assert abs(R[0, n] - R[1, n + 1]) < 1e-15

    def test_degenerate_grid_errors(self):
        with pytest.raises(DegenerateGridError):
            fas_correlation_matrix(PlanarFasGeometry(W_x=2.0, W_y=2.0,
                                                     N_x=1, N_y=10))

    @pytest.mark.parametrize("W", [1.0, 2.0, 3.0])
    def test_j0_is_scipy_spherical_jn_bit_for_bit(self, W, monkeypatch):
        from scipy.special import spherical_jn
        geom = PlanarFasGeometry(W_x=W, W_y=W, N_x=10, N_y=10)
        checked = []
        monkeypatch.setattr(channel, "check_psd",
                            lambda A, *a, **k: checked.append(A) or A)
        fas_correlation_matrix(geom)
        coords = geom.port_coordinates().astype(float)
        dx = np.abs(coords[:, None, 0] - coords[None, :, 0]) * W / 9
        dy = np.abs(coords[:, None, 1] - coords[None, :, 1]) * W / 9
        ref = spherical_jn(0, 2.0 * np.pi * np.hypot(dx, dy))
        assert checked[0].tobytes() == ref.tobytes()

    def test_scenarios_leave_scipy_special_unloaded(self):
        # scipy.special costs about 26 MiB of resident memory on import
        import os
        import subprocess
        import sys
        import fasris
        code = ("import sys, fasris\n"
                "from fasris.scenarios import fig1_scenario, fig3_scenario\n"
                "fig1_scenario(24, 80.0)\n"
                "fig3_scenario(80.0)\n"
                "assert 'scipy.special' not in sys.modules\n")
        src = os.path.dirname(os.path.dirname(fasris.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestRisCorrelation:
    def test_diagonal_is_truncated_gaussian_mass(self):
        C = ris_correlation_matrix(RisAngularProfile(0.5, 10.0, 5.0, 4))
        # alpha=10, beta=5: the [-180, 180] window captures all but ~1e-300
        # of the Gaussian mass, so the diagonal is 1 to quadrature accuracy
        assert np.allclose(np.diag(C).real, 1.0, atol=1e-9)
        assert np.allclose(np.diag(C).imag, 0.0, atol=1e-12)

    def test_conjugate_symmetry(self):
        C = ris_correlation_matrix(RisAngularProfile(0.5, 30.0, 12.0, 6))
        assert np.allclose(C, C.conj().T, atol=1e-13)

    def test_against_high_resolution_quadrature(self):
        prof = RisAngularProfile(0.5, 10.0, 5.0, 5)
        C = ris_correlation_matrix(prof)
        phi = np.linspace(-180.0, 180.0, 2_000_001)
        envelope = np.exp(-(phi - prof.alpha) ** 2 / (2 * prof.beta ** 2)) \
            / np.sqrt(2 * np.pi * prof.beta ** 2)
        for q in (1, 3, 4):
            integrand = envelope * np.exp(
                1j * 2 * np.pi * prof.d_c * q * np.sin(np.pi * phi / 180.0))
            ref = np.trapezoid(integrand, phi)
            assert abs(C[q, 0] - ref) < 1e-9

    def test_fig1_reuse_is_psd(self):
        R = ris_correlation_matrix(RisAngularProfile(0.5, 10.0, 5.0, 16))
        w = np.linalg.eigvalsh(R)
        assert w.min() >= -1e-10

    # two spacings, three sizes and two spreads: the profiles converge at
    # 32, 64 or 128 panels, and the two of (0.5, 16) at different counts
    MIXED = [RisAngularProfile(d_c, alpha, beta, L)
             for d_c in (0.5, 1.0) for L in (4, 16, 32)
             for alpha, beta in ((10.0, 5.0), (-40.0, 30.0))]

    @pytest.mark.parametrize("order", ["given", "permuted"])
    def test_batch_matches_single_profile_calls(self, order):
        profiles = list(self.MIXED)
        if order == "permuted":
            profiles = [profiles[i] for i in
                        np.random.default_rng(3).permutation(len(profiles))]
        batch = ris_correlation_matrices(profiles)
        assert len(batch) == len(profiles)
        for prof, C in zip(profiles, batch):
            assert np.array_equal(C, ris_correlation_matrix(prof))

    def test_unconverged_quadrature_raises(self):
        with pytest.raises(PrecisionError, match="residual"):
            ris_correlation_matrix(RisAngularProfile(0.5, 10.0, 5.0, 4),
                                   abs_tol=0.0)

    @pytest.mark.parametrize("beta", [0.001, 0.003, 0.01, 0.015, 0.02])
    def test_spread_narrower_than_the_nodes_raises(self, beta):
        # every node lies many spreads from alpha: two doublings agree on a
        # near-zero matrix, but the diagonal misses the Gaussian mass ~1
        with pytest.raises(PrecisionError, match="residual"):
            ris_correlation_matrix(RisAngularProfile(0.5, 10.0, beta, 4))

    def test_one_unconverged_profile_fails_the_batch(self):
        # d_c = 5000 oscillates faster than 4096 panels resolve
        bad = RisAngularProfile(5000.0, 10.0, 30.0, 4)
        good = self.MIXED[:3]
        for profiles in (good + [bad], [bad] + good):
            with pytest.raises(PrecisionError, match="residual"):
                ris_correlation_matrices(profiles)

    @pytest.mark.parametrize("build, most", [
        (lambda: fig1_scenario(24, 80.0), 8),
        (lambda: fig3_scenario(80.0), 4)], ids=["fig1", "fig3"])
    def test_scenario_shares_the_panel_rules(self, monkeypatch, build, most):
        calls = []
        rule = channel._gauss_legendre_panels

        def counted(n_panels):
            calls.append(n_panels)
            return rule(n_panels)

        monkeypatch.setattr(channel, "_gauss_legendre_panels", counted)
        build()
        assert 0 < len(calls) <= most


class TestPathLoss:
    def test_reference_gain_at_one_meter(self):
        assert path_loss(PathLossParams(db2lin(-20.0), 3.2, 1.0)) == pytest.approx(0.01)

    def test_direct_formula(self):
        val = path_loss(PathLossParams(0.01, 2.1, 10.0))
        assert val == pytest.approx(0.01 * 10 ** -2.1, rel=1e-12)
        assert val == pytest.approx(7.943e-5, rel=1e-3)

    def test_cascaded_below_direct_for_reference_geometry(self):
        # evaluated with the cosine-rule BS-user distance
        for d_ris in (20.0, 24.0, 25.0):
            d_bs = bs_user_distance(d_ris)
            assert cascaded_gain(d_ris) < direct_gain(d_bs)


class TestSelection:
    def test_all_ones_identity(self, rng):
        A = random_correlation(6, rng)
        assert np.allclose(select_submatrix(A, np.ones(6)), A)

    def test_diagonal_pick(self):
        A = np.diag([1.0, 2.0, 3.0])
        out = select_submatrix(A, np.array([1, 0, 1]))
        assert np.allclose(out, np.diag([1.0, 3.0]))

    def test_wrong_cardinality(self):
        with pytest.raises(ConstraintError):
            select_submatrix(np.eye(4), np.array([1, 1, 0, 0]), m=3)
        with pytest.raises(ConstraintError):
            select_submatrix(np.eye(4), np.array([0.5, 0.5, 0, 0]))

    def test_embedded_surrogate_matches_submatrix(self, rng):
        # binary s: the sqrt-sandwich surrogate has exactly the submatrix's
        # nonzero spectrum, and diag(s) A diag(s) with the zero rows/columns
        # removed is the submatrix itself
        for _ in range(5):
            n = 8
            A = random_correlation(n, rng)
            s = np.zeros(n)
            s[rng.choice(n, size=4, replace=False)] = 1.0
            direct = select_submatrix(A, s)
            emb = embed_selection(A, s)
            ev_emb = np.sort(np.linalg.eigvalsh(emb))[-4:]
            ev_dir = np.sort(np.linalg.eigvalsh(direct))
            assert np.allclose(ev_emb, ev_dir, atol=1e-10)
            masked = (A * s[:, None]) * s[None, :]
            idx = np.flatnonzero(s)
            assert np.allclose(masked[np.ix_(idx, idx)], direct)

    def test_relaxed_range_check(self, rng):
        A = random_correlation(4, rng)
        with pytest.raises(ConstraintError):
            embed_selection(A, np.array([1.2, 0.0, 0.0, 0.0]))


class TestEffectiveRisCorrelation:
    def test_identity_case(self):
        _, C = effective_ris_correlation(np.eye(4), None, np.eye(4), 1.0)
        assert np.allclose(C, np.eye(4))

    def test_unitary_invariance_of_spectrum(self, rng):
        C_R = random_correlation(6, rng)
        phi = rng.uniform(0, 2 * np.pi, 6)
        _, C0 = effective_ris_correlation(np.eye(6), None, C_R, 1.0)
        _, C1 = effective_ris_correlation(np.eye(6), phi, C_R, 1.0)
        assert np.allclose(np.linalg.eigvalsh(C0), np.linalg.eigvalsh(C1),
                           atol=1e-10)

    def test_dense_product_oracle(self, rng):
        # independent evaluation via scipy's general matrix square root
        C_L = random_correlation(5, rng)
        C_R = random_correlation(5, rng)
        phi = rng.uniform(0, 2 * np.pi, 5)
        t = 0.7
        _, C = effective_ris_correlation(C_L, phi, C_R, t)
        Phi = np.diag(np.exp(1j * phi))
        half = np.sqrt(t) * sqrtm(C_L) @ Phi @ sqrtm(C_R)
        assert np.allclose(C, half @ half.conj().T, atol=1e-10)

    def test_trace_invariant_for_diagonal_cr(self, rng):
        C_L = random_correlation(5, rng)
        C_R = np.diag(rng.uniform(0.5, 1.5, 5))
        t = 0.9
        tr = None
        for _ in range(3):
            phi = rng.uniform(0, 2 * np.pi, 5)
            _, C = effective_ris_correlation(C_L, phi, C_R, t)
            cur = np.trace(C).real
            if tr is not None:
                assert cur == pytest.approx(tr, rel=1e-12)
            tr = cur


class TestRootCache:
    def test_cached_root_is_psd_sqrt_of_the_stored_matrix(self, small_uncommon):
        corr = small_uncommon.correlations
        for A in (corr.C_L, *corr.C_R, corr.R_tot):
            assert corr.root(A).tobytes() == psd_sqrt(A).tobytes()
        # stats_uncommon builds C_k from the cached roots, bit for bit
        phi = np.linspace(0.0, 3.0, small_uncommon.dims.L)
        C_list = small_uncommon.stats_uncommon(phi=phi)[2]
        for k, CR in enumerate(corr.C_R):
            _, C = effective_ris_correlation(corr.C_L, phi, CR,
                                             small_uncommon.t[k])
            assert C_list[k].tobytes() == C.tobytes()

    def test_reassigned_field_gets_its_own_root(self, small_uncommon, rng):
        corr = small_uncommon.correlations
        L = small_uncommon.dims.L
        corr.root(corr.C_L)
        corr.root(corr.C_R[0])
        corr.C_L = random_correlation(L, rng)
        corr.C_R = [random_correlation(L, rng) for _ in corr.C_R]
        assert np.array_equal(corr.root(corr.C_L), psd_sqrt(corr.C_L))
        assert np.array_equal(corr.root(corr.C_R[0]), psd_sqrt(corr.C_R[0]))
        _, C = effective_ris_correlation(corr.C_L, None, corr.C_R[0],
                                         small_uncommon.t[0])
        assert np.array_equal(small_uncommon.stats_uncommon()[2][0], C)

    def test_stats_take_each_root_once(self, small_uncommon, small_common,
                                       eigh_calls):
        calls = eigh_calls
        for _ in range(3):
            small_uncommon.stats_uncommon(phi=np.zeros(small_uncommon.dims.L))
        # C_L and each distinct C_R
        assert len(calls) <= 1 + len(small_uncommon.correlations.C_R)
        calls.clear()
        for _ in range(3):
            small_common.stats_common()
            small_common.stats_uncommon()
        assert len(calls) <= 2

    def test_sampler_reads_the_cached_roots(self, small_uncommon):
        sc = small_uncommon
        corr, K = sc.correlations, sc.dims.K
        first = ChannelSampler(sc, None, None)
        assert first.R_half.tobytes() == psd_sqrt(corr.R_tot).tobytes()
        for k, F in enumerate(corr.F_tot):
            assert first.F_half[k].tobytes() == \
                (np.sqrt(sc.u[k]) * psd_sqrt(F)).tobytes()

    def test_later_samplers_take_no_root(self, small_uncommon, eigh_calls):
        sc, K = small_uncommon, small_uncommon.dims.K
        ChannelSampler(sc, None, None)
        eigh_calls.clear()
        for _ in range(3):
            ChannelSampler(sc, None, np.linspace(0.0, 1.0, sc.dims.L))
        assert not eigh_calls
        ChannelSampler(sc, np.ones(sc.dims.M), None)   # selected: fresh roots
        assert len(eigh_calls) == 1 + K


class TestCascadedStackCache:
    @staticmethod
    def uncached(sc, phi=None):
        corr = sc.correlations
        return np.stack([effective_ris_correlation(corr.C_L, phi, CR,
                                                   sc.t[k])[1]
                         for k, CR in enumerate(corr.c_r_list(sc.dims.K))])

    def test_stack_is_read_only_and_built_once(self, small_uncommon):
        C = small_uncommon.stats_uncommon()[2]
        assert not C.flags.writeable
        with pytest.raises(ValueError):
            C[0, 0, 0] = 1.0
        assert small_uncommon.stats_uncommon()[2] is C
        assert C.tobytes() == self.uncached(small_uncommon).tobytes()

    def test_changed_phases_or_gains_rebuild(self, small_uncommon):
        from dataclasses import replace
        sc, L = small_uncommon, small_uncommon.dims.L
        sc.stats_uncommon()
        phi = np.linspace(0.0, 2.0, L)
        C = sc.stats_uncommon(phi=phi)[2]
        assert C.tobytes() == self.uncached(sc, phi).tobytes()
        other = replace(sc, t=2.0 * sc.t)       # the same CorrelationSet
        C2 = other.stats_uncommon(phi=phi)[2]
        assert C2.tobytes() == self.uncached(other, phi).tobytes()
        assert not np.array_equal(C2, C)
        assert sc.stats_uncommon(phi=phi)[2].tobytes() == C.tobytes()

    @pytest.mark.parametrize("field", ["C_L", "C_R", "C_R[1]"])
    def test_reassigned_field_rebuilds(self, small_uncommon, rng, field):
        sc, L = small_uncommon, small_uncommon.dims.L
        corr = sc.correlations
        before = sc.stats_uncommon()[2]
        if field == "C_L":
            corr.C_L = random_correlation(L, rng)
        elif field == "C_R":
            corr.C_R = [random_correlation(L, rng) for _ in corr.C_R]
        else:
            corr.C_R[1] = random_correlation(L, rng)
        C = sc.stats_uncommon()[2]
        assert C.tobytes() == self.uncached(sc).tobytes()
        assert not np.array_equal(C, before)


class TestSampling:
    def _scenario(self, rng, u=None, t=None):
        M, K, L = 10, 3, 6
        corr = CorrelationSet(R_tot=random_correlation(M, rng),
                              F_tot=[random_correlation(M, rng) for _ in range(K)],
                              C_L=random_correlation(L, rng),
                              C_R=[random_correlation(L, rng) for _ in range(K)])
        return Scenario(dims=Dimensions(M=M, K=K, L=L), correlations=corr,
                        u=np.full(K, 1.0) if u is None else u,
                        t=np.full(K, 0.5) if t is None else t,
                        p=np.ones(K), sigma2=0.5)

    def test_zero_gains_zero_channel(self, rng):
        sc = self._scenario(rng, u=np.zeros(3), t=np.zeros(3))
        sample = ChannelSampler(sc, None, None).draw(trial_rng(1, 0))
        assert np.all(sample.H == 0)

    def test_second_moments(self, rng):
        sc = self._scenario(rng)
        sampler = ChannelSampler(sc, None, None)
        M, K, L = 10, 3, 6
        trials = 10_000
        acc = np.zeros(K)
        for trial in range(trials):
            s = sampler.draw(trial_rng(99, trial))
            acc += np.sum(np.abs(s.H) ** 2, axis=0)
        acc /= trials
        corr = sc.correlations
        for k in range(K):
            Ck = effective_ris_correlation(corr.C_L, None, corr.C_R[k],
                                           sc.t[k])[1]
            expect = sc.u[k] * np.trace(corr.F_tot[k]).real / M \
                + np.trace(corr.R_tot).real * np.trace(Ck).real / (M * L)
            # norm^2 of h_k concentrates; 3 sigma with std ~ expect/sqrt(M')
            tol = 3.0 * expect / np.sqrt(trials)
            assert abs(acc[k] - expect) < 3.5 * tol

    def test_seed_determinism(self, rng):
        sc = self._scenario(rng)
        a = ChannelSampler(sc, None, None).draw(trial_rng(7, 3)).H
        b = ChannelSampler(sc, None, None).draw(trial_rng(7, 3)).H
        assert np.array_equal(a, b)
        c = ChannelSampler(sc, None, None).draw(trial_rng(7, 4)).H
        assert not np.array_equal(a, c)

    def test_assembly_identity(self, rng):
        # H columns match the definitional assembly from the retained factors
        sc = self._scenario(rng)
        phi = rng.uniform(0, 2 * np.pi, 6)
        sampler = ChannelSampler(sc, None, phi)
        sample = sampler.draw(trial_rng(5, 1))
        corr = sc.correlations
        for k in range(3):
            Fk_half = psd_sqrt(corr.F_tot[k])
            Z_k = sampler.R_half @ sample.X @ sampler.C_half[k]
            h = np.sqrt(sc.u[k]) * Fk_half @ sample.W[:, k] \
                + Z_k @ sample.Y[:, k]
            assert np.allclose(h, sample.H[:, k], atol=1e-12)

    def test_fig1_scenario_shapes(self):
        sc = fig1_scenario(16, 80.0, K=4, L=8)
        assert sc.dims.M == 16 and len(sc.correlations.F_tot) == 4
        assert sc.correlations.F_tot[0].shape == (16, 16)
        assert sc.u.shape == (4,) and np.all(sc.t < sc.u)
