import io
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgarch import kernels
from mdgarch.innovations import InnovationSpec, RngStream
from mdgarch.kernels import (BLOCK, Recursion, map_row_blocks,
                             recursion_batch)
from mdgarch.localization import (GarchParams, LocalizationScheme,
                                  realize_params)
from mdgarch.simulate import (CLASSICAL, LITERAL, decompose_volatility,
                              export_path_csv, path_from_eps, simulate_path,
                              volatility_multiplicative)

NORMAL = InnovationSpec(kind="standard-normal")


def recursion_loop(eps, omega, alpha, beta, sigma0_sq):
    """Reference batched recursion: one vectorized step per column.

    eps has shape (reps, n+1); returns (sigma_sq, log_sigma_sq,
    overflow_at) where overflow_at[r] is the first t with non-finite
    sigma_sq (or -1).  Past an overflow the linear track is inf and the
    log track continues exactly in log space.
    """
    reps, n1 = eps.shape
    n = n1 - 1
    sigma_sq = np.empty((reps, n + 1))
    log_sigma_sq = np.empty((reps, n + 1))
    overflow_at = np.full(reps, -1, dtype=np.int64)

    sigma_sq[:, 0] = sigma0_sq
    log_sigma_sq[:, 0] = math.log(sigma0_sq)
    log_omega = math.log(omega)
    log_alpha = math.log(alpha) if alpha > 0.0 else -math.inf
    log_beta = math.log(beta) if beta > 0.0 else -math.inf

    for t in range(1, n + 1):
        e2 = eps[:, t - 1] ** 2
        prev = sigma_sq[:, t - 1]
        # overflow to inf is expected on explosive paths; the log track
        # below carries the exact value onward
        with np.errstate(over="ignore"):
            cur = omega + (alpha * e2 + beta) * prev
        sigma_sq[:, t] = cur
        finite = np.isfinite(cur)
        log_sigma_sq[finite, t] = np.log(cur[finite])
        bad = ~finite
        if bad.any():
            lp = log_sigma_sq[bad, t - 1]
            with np.errstate(divide="ignore"):
                growth = np.logaddexp(log_alpha + np.log(e2[bad]), log_beta)
            log_sigma_sq[bad, t] = np.logaddexp(log_omega, growth + lp)
            newly = bad & (overflow_at < 0)
            overflow_at[newly] = t
    return sigma_sq, log_sigma_sq, overflow_at


def assert_matches_loop(eps, omega, alpha, beta, sigma0_sq, keep):
    """recursion_batch equals recursion_loop at the kept columns, bit for
    bit (nan positions included)."""
    with np.errstate(invalid="ignore"):
        want = recursion_loop(eps, omega, alpha, beta, sigma0_sq)
    got = recursion_batch(eps, omega, alpha, beta, sigma0_sq, keep=keep)
    if keep is not None:
        want = (want[0][:, keep], want[1][:, keep], want[2])
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    return got


def make_params(n=100, alpha=0.05, beta=0.9, omega=1.0, sigma0_sq=1.0):
    return GarchParams(n=n, alpha_n=alpha, beta_n=beta,
                       gamma_n=alpha + beta - 1.0, omega=omega,
                       sigma0_sq=sigma0_sq)


class TestRecursion:
    def test_collapses_to_omega(self):
        params = make_params(alpha=0.0, beta=0.0)
        path = simulate_path(params, NORMAL, RngStream(1, 0))
        assert np.all(path.sigma_sq[1:] == 1.0)

    def test_one_step_hand_computation(self):
        params = make_params(n=1, alpha=0.5, beta=0.5)
        eps = np.array([1.0, 0.3])
        path = path_from_eps(params, eps, RngStream(0, 0))
        assert path.sigma_sq[1] == pytest.approx(2.0, abs=1e-15)

    def test_determinism_bit_identical(self):
        params = make_params(n=500)
        a = simulate_path(params, NORMAL, RngStream(9, 4))
        b = simulate_path(params, NORMAL, RngStream(9, 4))
        assert np.array_equal(a.sigma_sq, b.sigma_sq)
        assert np.array_equal(a.u, b.u)

    def test_recursion_invariant(self):
        params = make_params(n=200)
        path = simulate_path(params, NORMAL, RngStream(2, 0))
        for t in range(1, 201):
            expected = (params.omega + params.alpha_n * path.u[t - 1] ** 2
                        + params.beta_n * path.sigma_sq[t - 1])
            assert path.sigma_sq[t] == pytest.approx(expected, rel=1e-14)

    def test_sigma_floor(self):
        params = make_params(n=300, omega=0.7)
        path = simulate_path(params, NORMAL, RngStream(3, 0))
        assert np.all(path.sigma_sq[1:] >= 0.7)

    def test_log_track_matches(self):
        params = make_params(n=300)
        path = simulate_path(params, NORMAL, RngStream(4, 0))
        assert np.allclose(np.exp(path.log_sigma_sq), path.sigma_sq,
                           rtol=1e-12)

    def test_xi_and_u_derived_fields(self):
        params = make_params(n=50)
        path = simulate_path(params, NORMAL, RngStream(5, 0))
        assert np.array_equal(path.xi, path.eps ** 2 - 1.0)
        assert np.allclose(path.u ** 2, path.sigma_sq * path.eps ** 2,
                           rtol=1e-14)

    def test_overflow_flagged_and_log_continues(self):
        # strongly explosive: sigma^2 doubles-ish every step past overflow
        params = GarchParams(n=3000, alpha_n=0.5, beta_n=1.5, gamma_n=1.0,
                             omega=1.0, sigma0_sq=1.0)
        path = simulate_path(params, NORMAL, RngStream(6, 0))
        assert path.overflowed
        t0 = path.overflow_at
        assert not np.isfinite(path.sigma_sq[t0])
        assert np.all(np.isfinite(path.log_sigma_sq))
        # log track keeps growing at least like log(beta) per step
        tail = np.diff(path.log_sigma_sq[t0:])
        assert np.all(tail > 0.0)


class TestKernels:
    def test_numpy_fallback_agrees(self):
        eps = RngStream(7, 0).generator().standard_normal((8, 401))
        sig_a, log_a, ov_a = recursion_batch(eps, 1.0, 0.05, 0.9, 1.0)
        sig_b, log_b, ov_b = recursion_loop(eps, 1.0, 0.05, 0.9, 1.0)
        # linear track and overflow flags bit-identical; log track to 1 ulp
        assert np.array_equal(sig_a, sig_b)
        assert np.array_equal(ov_a, ov_b)
        assert np.allclose(log_a, log_b, rtol=0.0, atol=5e-16)

    @pytest.mark.parametrize("c_gamma,p,kappa,n,overflows", [
        (-1.0, 0.5, 0.4, 5000, False),
        (0.0, 0.6, 0.4, 5000, False),
        (1.0, 0.5, 0.6, 5000, False),
        (1.0, 0.5, 0.2, 20000, True),
    ])
    def test_single_row_bit_identical(self, c_gamma, p, kappa, n,
                                      overflows):
        # a batch of one row takes the plain-loop route
        params = realize_params(
            LocalizationScheme(omega=1.0, sigma0_sq=1.0, c_alpha=1.0, p=p,
                               c_gamma=c_gamma, kappa=kappa), n)
        args = (params.omega, params.alpha_n, params.beta_n,
                params.sigma0_sq)
        for i in range(3):
            eps = RngStream(20260823, i).generator().standard_normal(
                (1, n + 1))
            row = recursion_batch(eps, *args)
            batch = recursion_loop(eps, *args)
            assert (row[2][0] >= 0) == overflows
            for a, b in zip(row, batch):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_single_row_nan_after_overflow(self):
        # beta = 0 and eps = 0 past an overflow give 0 * inf = nan on the
        # linear track, as in the vectorized loop
        eps = RngStream(7, 2).generator().standard_normal((1, 3001))
        eps[0, 1000::7] = 0.0
        row = recursion_batch(eps, 1.0, 100.0, 0.0, 1.0)
        with np.errstate(invalid="ignore"):
            batch = recursion_loop(eps, 1.0, 100.0, 0.0, 1.0)
        assert 0 <= batch[2][0] < 1000 and np.isnan(batch[0]).any()
        for a, b in zip(row, batch):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.data(),
           st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1,
                            2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1]),
           st.integers(1, 5), st.sampled_from([0.0, 0.05, 0.5, 2.0, 100.0]),
           st.sampled_from([0.0, 0.9, 1.0, 1.5]),
           st.sampled_from([1e-3, 1.0, 7.0]),
           st.sampled_from([1.0, 0.3, 1e300]))
    def test_blocked_kernel_matches_loop(self, data, n, reps, alpha, beta,
                                         omega, sigma0_sq):
        eps = RngStream(data.draw(st.integers(0, 2 ** 32)), 0).generator() \
            .standard_normal((reps, n + 1))
        for r in range(reps):
            if n and data.draw(st.booleans(), label="spike"):
                # alpha * e^2 overflows here once alpha >= 2
                eps[r, data.draw(st.integers(0, n - 1))] = 1e154
            if data.draw(st.booleans(), label="zeros"):
                eps[r, data.draw(st.integers(0, n))::3] = 0.0
        keep = data.draw(st.none() | st.lists(st.integers(0, n), max_size=6)
                         .map(lambda ks: [0, *ks, n]), label="keep")
        assert_matches_loop(eps, omega, alpha, beta, sigma0_sq, keep)

    @pytest.mark.parametrize("keep", [None, [0, 5, BLOCK, 2 * BLOCK + 1,
                                             3 * BLOCK + 3, 3 * BLOCK + 7]])
    def test_overflow_in_first_middle_last_block(self, keep):
        # alpha e^2 overflows at the spikes, in the first, a middle and the
        # last of four blocks; beta = 0 and eps = 0 every third step past
        # them give 0 * inf = nan on the linear track
        n = 3 * BLOCK + 7
        eps = RngStream(7, 3).generator().standard_normal((4, n + 1))
        for r, t in enumerate((5, BLOCK + BLOCK // 2, 3 * BLOCK + 3)):
            eps[r, t - 1] = 1e154
            eps[r, t::3] = 0.0
        got = assert_matches_loop(eps, 1.0, 2.0, 0.0, 1.0, keep)
        assert list(got[2]) == [5, BLOCK + BLOCK // 2, 3 * BLOCK + 3, -1]
        assert np.isnan(got[0][:3, -1]).all()
        assert np.isfinite(got[1]).all()
        for r in range(4):   # one-row batches take the plain-loop route
            assert_matches_loop(eps[r:r + 1], 1.0, 2.0, 0.0, 1.0, keep)

    def test_overflow_past_zero_factor_is_silent(self):
        eps = RngStream(7, 2).generator().standard_normal((3, 3001))
        eps[:, 1000::7] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (eps, eps[:1]):
                out = recursion_batch(rows, 1.0, 100.0, 0.0, 1.0,
                                      keep=[0, 1500, 3000])
                assert (out[2] >= 0).all() and np.isnan(out[0]).any()

    @pytest.mark.parametrize("keep", [None, "some"])
    @pytest.mark.parametrize("reps", [1, 5])
    @pytest.mark.parametrize("sizes", [[1], [7], [300], [BLOCK + 3, 1, 2]],
                             ids=["1", "7", "300", "mixed"])
    def test_stepper_fed_in_time_blocks(self, reps, sizes, keep):
        # recursion_batch is Recursion.advance over one block; feeding the
        # same innovations in blocks of other sizes (cycled) changes no
        # bit.  Rows overflow in the first block, mid-block, at a block's
        # first and last step and past the last block boundary; zeros
        # past the spikes give 0 * inf = nan
        n = 3 * BLOCK + 7
        eps = RngStream(7, 8).generator().standard_normal((reps, n + 1))
        spikes = (5, 301, 300, BLOCK + 7, n - 1)
        for r in range(reps):
            t = spikes[(r + len(sizes)) % len(spikes)]
            eps[r, t - 1] = 1e154
            eps[r, t::3] = 0.0
        if keep == "some":
            keep = [0, 1, 5, 299, 300, 301, BLOCK, 2 * BLOCK + 1, n - 1, n]
        want = recursion_batch(eps, 1.0, 2.0, 0.0, 1.0, keep=keep)
        assert (want[2] >= 0).all()
        rec = Recursion(reps, n, 1.0, 2.0, 0.0, 1.0, keep)
        a, i = 0, 0
        while a <= n:
            size = sizes[i % len(sizes)]
            # the last block holds eps_n, which no step reads
            rec.advance(np.ascontiguousarray(eps[:, a:a + size]), a)
            a, i = a + size, i + 1
        got = rec.sigma_sq, rec.log_sigma_sq, rec.overflow_at
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()

    def test_keep_out_of_range(self):
        eps = np.zeros((2, 11))
        for keep in ([11], [-1]):
            with pytest.raises(ValueError):
                recursion_batch(eps, 1.0, 0.05, 0.9, 1.0, keep=keep)


    @pytest.mark.parametrize("keep", [None, "some"])
    @pytest.mark.parametrize("sigma0_sq", [1.0, 1e300])
    @pytest.mark.parametrize("block", [1, 2, 3, 256])
    def test_sub_block_seams(self, monkeypatch, block, sigma0_sq, keep):
        # each sub-block of BLOCK steps ends with the overflow detection
        # and the log-space steps, so every seam restarts them.  Rows
        # overflow at t0 = 1, at a sub-block's first and last step, twice
        # in one sub-block and at the last step; zeros past the spikes
        # give 0 * inf = nan.  recursion_batch, its one-row batches and
        # Recursion fed in mixed time blocks all equal the loop
        monkeypatch.setattr(kernels, "BLOCK", block)
        n = 4 * 256 + 7
        spikes = (1, block + 1, 2 * block, 3 * block + 2, 3 * block + 3,
                  n)
        eps = RngStream(7, 9).generator().standard_normal((7, n + 1))
        for r, t in enumerate(spikes):
            eps[r, t - 1] = 1e154
            eps[r, t::3] = 0.0
        if keep == "some":
            keep = [0, 1, 2, block, block + 1, 2 * block, 3 * block + 3,
                    n - 1, n]
        with np.errstate(invalid="ignore"):
            loop = recursion_loop(eps, 1.0, 2.0, 0.0, sigma0_sq)
        want = [x if keep is None else x[:, keep] for x in loop[:2]]
        want.append(loop[2])
        assert list(want[2][:6]) == list(spikes)
        got = assert_matches_loop(eps, 1.0, 2.0, 0.0, sigma0_sq, keep)
        assert np.isnan(got[0][:5, -1]).all()
        for r in range(len(eps)):
            assert_matches_loop(eps[r:r + 1], 1.0, 2.0, 0.0, sigma0_sq, keep)
        rec = Recursion(len(eps), n, 1.0, 2.0, 0.0, sigma0_sq, keep)
        sizes = (block + 3, 1, 2, 300)
        a, i = 0, 0
        while a <= n:
            size = sizes[i % len(sizes)]
            rec.advance(np.ascontiguousarray(eps[:, a:a + size]), a)
            a, i = a + size, i + 1
        for x, y in zip((rec.sigma_sq, rec.log_sigma_sq, rec.overflow_at),
                        want):
            assert x.tobytes() == y.tobytes()


class TestRowBlocks:
    """map_row_blocks, and the kernel's outputs on batches of rows."""

    @staticmethod
    def spans(rows, block_rows=1):
        return map_row_blocks(lambda s: (s.start, s.stop), rows, block_rows)

    def test_contiguous_slices(self, monkeypatch):
        monkeypatch.setattr(kernels, "WORKERS", 3)
        assert self.spans(7, 2) == [(0, 2), (2, 4), (4, 6), (6, 7)]
        assert self.spans(3) == [(0, 1), (1, 2), (2, 3)]
        assert self.spans(1) == [(0, 1)]
        assert self.spans(0) == [(0, 0)]
        assert self.spans(5, 5) == [(0, 5)]
        assert self.spans(5, 9) == [(0, 5)]

    def test_threads_share_the_slices(self, monkeypatch):
        monkeypatch.setattr(kernels, "WORKERS", 4)
        barrier = threading.Barrier(4, timeout=10)

        def fn(s):
            if s.start < 4:
                barrier.wait()   # four slices are in fn at once
            return threading.get_ident()

        ids = map_row_blocks(fn, 8)
        assert len(set(ids)) == 4 and threading.get_ident() in ids
        # a single slice runs on the calling thread and starts no thread
        before = threading.active_count()
        assert map_row_blocks(lambda s: (threading.get_ident(),
                                         threading.active_count()), 9, 9) \
            == [(threading.get_ident(), before)]

    def test_a_slow_thread_takes_fewer_slices(self, monkeypatch):
        monkeypatch.setattr(kernels, "WORKERS", 2)
        caller = threading.get_ident()

        def fn(s):
            if threading.get_ident() == caller:
                threading.Event().wait(0.05)
            return threading.get_ident()

        ids = map_row_blocks(fn, 20)
        assert ids.count(caller) <= 2

    def test_worker_exception_re_raised_after_join(self, monkeypatch):
        monkeypatch.setattr(kernels, "WORKERS", 3)
        before = threading.active_count()
        second_failed = threading.Event()

        def fn(s):
            if s.start == 1:   # fails after slice 2 has failed
                second_failed.wait(10)
                raise KeyError(1)
            if s.start == 2:
                second_failed.set()
                raise IndexError(2)
            return s

        with pytest.raises(KeyError):     # the lowest failed slice's
            map_row_blocks(fn, 6)
        assert threading.active_count() == before

    @pytest.mark.parametrize("reps", [1, 3, 7])
    @pytest.mark.parametrize("keep", [None, [0, 5, BLOCK, 2 * BLOCK + 1,
                                             3 * BLOCK + 7]])
    def test_kernel_overflows_in_any_sub_block(self, reps, keep):
        # rows 0, reps // 2 and reps - 1 overflow, in the first, a middle
        # and the last of the kernel's sub-blocks; the kernel reads no
        # worker count (TestChunkShape in test_harness pins its thread)
        n = 3 * BLOCK + 7
        eps = RngStream(7, 5).generator().standard_normal((reps, n + 1))
        spikes = dict(zip((0, reps // 2, reps - 1),
                          (5, BLOCK + BLOCK // 2, 3 * BLOCK + 3)))
        for r, t in spikes.items():
            eps[r, t - 1] = 1e154
            eps[r, t::3] = 0.0
        got = assert_matches_loop(eps, 1.0, 2.0, 0.0, 1.0, keep)
        assert list(got[2]) == [spikes.get(r, -1) for r in range(reps)]

    @pytest.mark.parametrize("overflows", [2, 3])
    def test_kernel_splits_large_batches(self, monkeypatch, overflows):
        # over 1000 rows step as one batch on the calling thread, which
        # reads no worker count; the last row overflows, and so do the
        # first (2) or the first and a middle one (3), at other times
        monkeypatch.setattr(kernels, "WORKERS", 2)
        eps = RngStream(7, 6).generator().standard_normal((1503, 41))
        rows = [0, 751, len(eps) - 1] if overflows == 3 else [0, len(eps) - 1]
        for r, t in zip(rows, [20, 30, 3][-overflows:]):
            eps[r, t] = 1e154
        got = assert_matches_loop(eps, 1.0, 2.0, 0.0, 1.0, [0, 10, 40])
        assert np.flatnonzero(got[2] >= 0).tolist() == rows


class TestMultiplicative:
    def test_eps_independent_closed_form(self):
        # alpha = 0: sigma_2^2 = omega(1 + beta) + sigma_0^2 beta^2 = 2.71
        params = make_params(n=10, alpha=0.0, beta=0.9)
        eps = np.zeros(11)
        log_val, lin = volatility_multiplicative(params, eps, 2)
        assert lin == pytest.approx(2.71, rel=1e-14)

    def test_telescoping_igarch(self):
        # alpha + beta = 1, eps^2 = 1, sigma_0^2 = omega: sigma_t^2 = omega(t+1)
        params = make_params(n=20, alpha=0.3, beta=0.7, omega=2.0,
                             sigma0_sq=2.0)
        eps = np.ones(21)
        for t in (1, 5, 20):
            _, lin = volatility_multiplicative(params, eps, t)
            assert lin == pytest.approx(2.0 * (t + 1), rel=1e-13)

    def test_agrees_with_recursion(self):
        params = make_params(n=500)
        path = simulate_path(params, NORMAL, RngStream(8, 0))
        log_val, lin = volatility_multiplicative(params, path.eps, 500)
        assert lin == pytest.approx(path.sigma_sq[500], rel=1e-8)
        assert log_val == pytest.approx(path.log_sigma_sq[500], abs=1e-8)

    def test_t_out_of_range(self):
        params = make_params(n=10)
        with pytest.raises(ValueError):
            volatility_multiplicative(params, np.zeros(11), 11)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_identity_property(self, seed):
        params = make_params(n=80, alpha=0.1, beta=0.85)
        path = simulate_path(params, NORMAL, RngStream(seed, 0))
        _, lin = volatility_multiplicative(params, path.eps, 80)
        assert lin == pytest.approx(path.sigma_sq[80], rel=1e-9)


def ns_params(n=2000):
    scheme = LocalizationScheme(omega=1.0, sigma0_sq=1.0, c_alpha=1.0,
                                p=0.5, c_gamma=-1.0, kappa=0.4)
    return realize_params(scheme, n)


class TestDecomposition:
    def test_classical_identity(self):
        params = ns_params()
        path = simulate_path(params, NORMAL, RngStream(10, 0))
        for k in (100, 800, 1600):
            dec = decompose_volatility(path, params, k, CLASSICAL)
            assert dec.reconstructed(params.omega) == pytest.approx(
                path.sigma_sq[k], rel=1e-8)

    def test_xi_zero_kills_r2(self):
        params = make_params(n=200, alpha=0.05, beta=0.95)
        eps = np.ones(201)
        path = path_from_eps(params, eps, RngStream(0, 0))
        dec = decompose_volatility(path, params, 100, CLASSICAL)
        assert dec.r2_max == 0.0
        assert dec.r1 == pytest.approx(0.0, abs=1e-12)

    def test_integrated_component4_oracle(self):
        # gamma = 0 classical: sigma2_{k,4}/omega = (k-1) + alpha ΣΣ xi
        params = make_params(n=400, alpha=0.05, beta=0.95)
        assert params.gamma_n == pytest.approx(0.0, abs=1e-15)
        params = GarchParams(n=400, alpha_n=0.05, beta_n=0.95, gamma_n=0.0,
                             omega=1.3, sigma0_sq=1.0)
        path = simulate_path(params, NORMAL, RngStream(11, 0))
        k = 300
        dec = decompose_volatility(path, params, k, CLASSICAL)
        xi_rev = path.xi[k - 1::-1]
        double = sum(sum(xi_rev[:j]) for j in range(1, k))
        oracle = (k - 1) + 0.05 * double
        assert dec.components[3] / 1.3 == pytest.approx(oracle, rel=1e-10)

    def test_literal_prefactor_bookkeeping(self):
        params = ns_params()
        path = simulate_path(params, NORMAL, RngStream(12, 0))
        k = 500
        dec = decompose_volatility(path, params, k, LITERAL)
        assert dec.prefactor_log == 0.5 * k * math.log(k)
        for log_mag, sign in dec.components:
            assert math.isfinite(log_mag) or log_mag == -math.inf
            assert sign in (-1.0, 0.0, 1.0)

    def test_r1_exact_identity(self):
        params = ns_params()
        path = simulate_path(params, NORMAL, RngStream(13, 0))
        k = 50
        dec = decompose_volatility(path, params, k, CLASSICAL)
        prod = np.prod(params.beta_n
                       + params.alpha_n * path.eps[k - 1::-1] ** 2)
        s_k = np.sum(path.xi[:k])
        oracle = (prod * math.exp(-k * params.gamma_n) - 1.0
                  - params.alpha_n * s_k)
        assert dec.r1 == pytest.approx(oracle, rel=1e-8)

    def test_k_bounds(self):
        params = ns_params()
        path = simulate_path(params, NORMAL, RngStream(14, 0))
        with pytest.raises(ValueError):
            decompose_volatility(path, params, 2, CLASSICAL)
        with pytest.raises(ValueError):
            decompose_volatility(path, params, params.n + 1, CLASSICAL)

    def test_unknown_mode(self):
        params = ns_params()
        path = simulate_path(params, NORMAL, RngStream(15, 0))
        with pytest.raises(ValueError):
            decompose_volatility(path, params, 100, "verbatim")


class TestExport:
    def test_csv_shape_and_format(self):
        params = make_params(n=5)
        path = simulate_path(params, NORMAL, RngStream(16, 0))
        buf = io.StringIO()
        export_path_csv(path, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,eps,u,sigma_sq,log_sigma_sq"
        assert len(lines) == 7
        fields = lines[3].split(",")
        assert int(fields[0]) == 2
        assert float(fields[3]) == path.sigma_sq[2]
