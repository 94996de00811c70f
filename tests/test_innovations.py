import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgarch.innovations import (InnovationSpec, InvalidInnovationSpec,
                                 RngStream, fourth_moment, innovation_cdf,
                                 sample_innovations, stream_generators,
                                 validate_spec, xi_second_moment)

NORMAL = InnovationSpec(kind="standard-normal")
T8 = InnovationSpec(kind="student-t-normalized", df=8.0)
TWO_POINT = InnovationSpec(kind="two-point-mixture",
                           a=math.sqrt(0.5), b=math.sqrt(1.5), w=0.5)


class TestValidate:
    def test_standard_normal_valid(self):
        assert validate_spec(NORMAL) is NORMAL

    def test_low_df_rejected(self):
        with pytest.raises(InvalidInnovationSpec, match="fourth-plus"):
            validate_spec(InnovationSpec(kind="student-t-normalized", df=4.2))

    def test_df_gate_boundary(self):
        with pytest.raises(InvalidInnovationSpec):
            validate_spec(InnovationSpec(kind="student-t-normalized", df=4.5))
        validate_spec(InnovationSpec(kind="student-t-normalized", df=4.6))

    def test_degenerate_two_point_rejected(self):
        with pytest.raises(InvalidInnovationSpec, match="Var"):
            validate_spec(InnovationSpec(kind="two-point-mixture",
                                         a=1.0, b=-1.0, w=0.5))

    def test_variance_constraint(self):
        with pytest.raises(InvalidInnovationSpec, match="variance"):
            validate_spec(InnovationSpec(kind="two-point-mixture",
                                         a=1.0, b=2.0, w=0.5))

    def test_weight_range(self):
        with pytest.raises(InvalidInnovationSpec):
            validate_spec(InnovationSpec(kind="two-point-mixture",
                                         a=0.5, b=1.5, w=1.5))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInnovationSpec):
            validate_spec(InnovationSpec(kind="cauchy"))


class TestMoments:
    def test_normal_fourth_moment(self):
        assert fourth_moment(NORMAL) == 3.0

    def test_normal_xi_var(self):
        assert xi_second_moment(NORMAL) == 2.0

    def test_t8_kurtosis_analytic(self):
        # 3(df-2)/(df-4) = 4.5 for df = 8
        assert fourth_moment(T8) == pytest.approx(4.5, abs=1e-12)

    def test_t8_kurtosis_quadrature_oracle(self):
        from scipy import integrate
        from scipy.stats import t as tdist
        df = 8.0
        scale = math.sqrt((df - 2.0) / df)
        val, err = integrate.quad(
            lambda x: x ** 4 * tdist.pdf(x / scale, df) / scale,
            -np.inf, np.inf)
        assert err < 1e-6
        assert fourth_moment(T8) == pytest.approx(val, abs=1e-6)

    def test_two_point_xi_var(self):
        # eps^2 in {0.5, 1.5} with equal weight: Var = 0.25
        assert xi_second_moment(TWO_POINT) == pytest.approx(0.25, abs=1e-12)


class TestSampling:
    def test_determinism(self):
        s = RngStream(42, 3)
        a = sample_innovations(NORMAL, 1000, s)
        b = sample_innovations(NORMAL, 1000, s)
        assert np.array_equal(a, b)

    def test_streams_differ_and_decorrelate(self):
        a = sample_innovations(NORMAL, 100000, RngStream(42, 0))
        b = sample_innovations(NORMAL, 100000, RngStream(42, 1))
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    @pytest.mark.parametrize("spec", [NORMAL, T8, TWO_POINT],
                             ids=["normal", "t8", "two-point"])
    def test_first_two_moments(self, spec):
        x = sample_innovations(spec, 10 ** 6, RngStream(7, 0))
        assert abs(x.mean()) < 4e-3
        assert abs(x.var() - 1.0) < 0.02

    def test_t8_sample_kurtosis(self):
        x = sample_innovations(T8, 10 ** 6, RngStream(11, 0))
        assert abs(np.mean(x ** 4) - 4.5) < 0.1

    def test_xi_var_matches_sample(self):
        for spec in (NORMAL, T8, TWO_POINT):
            x = sample_innovations(spec, 10 ** 6, RngStream(13, 0))
            xi = x ** 2 - 1.0
            se = xi.std() ** 2 * math.sqrt(2.0 / len(xi))  # rough chi^2 SE
            assert abs(np.var(xi) - xi_second_moment(spec)) < 5 * max(se, 0.01)

    def test_two_point_support(self):
        x = sample_innovations(TWO_POINT, 10000, RngStream(5, 0))
        support = {round(v, 12) for v in
                   (TWO_POINT.a, -TWO_POINT.a, TWO_POINT.b, -TWO_POINT.b)}
        assert {round(v, 12) for v in np.unique(x)} <= support

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_innovations(NORMAL, 0, RngStream(1, 0))

    @pytest.mark.parametrize("spec", [NORMAL, T8, TWO_POINT],
                             ids=["normal", "t8", "two-point"])
    def test_out_holds_the_same_bytes(self, spec):
        want = sample_innovations(spec, 1001, RngStream(3, 4))
        # a row of a block, as the harness passes it
        block = np.full((3, 1001), np.nan)
        row = block[1]
        assert sample_innovations(spec, 1001, RngStream(3, 4), out=row) \
            is row
        assert row.tobytes() == want.tobytes()
        assert np.isnan(block[[0, 2]]).all()
        for shape in ((1000,), (1002,), (1, 1001)):
            with pytest.raises(ValueError):
                sample_innovations(spec, 1001, RngStream(3, 4),
                                   out=np.empty(shape))

    @pytest.mark.parametrize("spec", [NORMAL, T8, TWO_POINT],
                             ids=["normal", "t8", "two-point"])
    def test_blocks_from_a_live_generator_equal_one_call(self, spec):
        # the harness draws each replication's stream in time blocks
        count = 3000
        want = sample_innovations(spec, count, RngStream(3, 4))
        rng = RngStream(3, 4).generator()
        got = np.empty(count)
        a = 0
        for size in (1, 7, 1024, count - 1032):
            sample_innovations(spec, size, rng, out=got[a:a + size])
            a += size
        assert got.tobytes() == want.tobytes()


class TestStreamGenerators:
    """stream_generators equals RngStream.generator, stream by stream."""

    @pytest.mark.parametrize("seed", [0, 20260823, 2 ** 32 + 5, 2 ** 70 + 3])
    @pytest.mark.parametrize("first", [0, 1000, 2 ** 32, 2 ** 32 + 1])
    def test_equal_state_and_draws(self, seed, first):
        gens = stream_generators(seed, first, 5)
        assert len(gens) == 5
        for i, gen in enumerate(gens):
            ref = RngStream(seed, first + i).generator()
            assert gen.bit_generator.state == ref.bit_generator.state
            assert gen.standard_normal(8).tobytes() \
                == ref.standard_normal(8).tobytes()

    @pytest.mark.parametrize("first", [2 ** 32 - 3, 2 ** 64 - 2])
    def test_range_across_a_word_boundary(self, first):
        # the index takes one more 32-bit word (or carries into the
        # upper word) inside the range
        for i, gen in enumerate(stream_generators(11, first, 6)):
            ref = RngStream(11, first + i).generator()
            assert gen.bit_generator.state == ref.bit_generator.state

    def test_many_streams(self):
        gens = stream_generators(7, 0, 300)
        draws = [g.random() for g in gens]
        assert draws == [RngStream(7, i).generator().random()
                         for i in range(300)]
        assert stream_generators(7, 10, 0) == []

    @pytest.mark.parametrize("seed,first", [(-1, 0), (-2 ** 40, 3), (1, -1)])
    def test_negative_seed_or_index_raises(self, seed, first):
        with pytest.raises(ValueError):
            stream_generators(seed, first, 3)
        if seed < 0:   # as SeedSequence does
            with pytest.raises(ValueError):
                RngStream(seed, first).generator()


class TestCdf:
    def test_normal_cdf_midpoint(self):
        assert innovation_cdf(NORMAL)(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_t8_cdf_symmetry(self):
        cdf = innovation_cdf(T8)
        assert float(cdf(0.0)) == pytest.approx(0.5, abs=1e-12)
        assert float(cdf(1.2)) + float(cdf(-1.2)) == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_t8_cdf_matches_sample(self):
        cdf = innovation_cdf(T8)
        x = sample_innovations(T8, 10 ** 5, RngStream(3, 0))
        emp = np.mean(x <= 0.7)
        assert abs(float(cdf(0.7)) - emp) < 0.01

    def test_two_point_rejected(self):
        with pytest.raises(InvalidInnovationSpec):
            innovation_cdf(TWO_POINT)


@given(a2=st.floats(0.05, 0.95), w=st.floats(0.05, 0.95))
@settings(max_examples=50, deadline=None)
def test_two_point_config_roundtrip_and_moments(a2, w):
    # choose b^2 so that w a^2 + (1-w) b^2 = 1 exactly by construction
    b2 = (1.0 - w * a2) / (1.0 - w)
    spec = InnovationSpec(kind="two-point-mixture",
                          a=math.sqrt(a2), b=math.sqrt(b2), w=w)
    validate_spec(spec)
    again = InnovationSpec.from_config(spec.to_config())
    assert again == spec
    m4 = w * a2 ** 2 + (1.0 - w) * b2 ** 2
    assert fourth_moment(spec) == pytest.approx(m4, rel=1e-12)
    assert xi_second_moment(spec) > 0.0


def test_config_roundtrip_all_kinds():
    for spec in (NORMAL, T8, TWO_POINT):
        assert InnovationSpec.from_config(spec.to_config()) == spec
