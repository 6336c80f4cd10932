import json
import math

import numpy as np
import pytest

from macfade.fading import ExponentialGain, PiecewiseLinearEmpirical, UniformGain

from macfade.cli import ConfigError, load_config

from oracles import reference_piecewise_pdf, reference_piecewise_quantile, simpson


PLE_EXAMPLE = PiecewiseLinearEmpirical((0.0, 0.5, 1.5, 4.0), (0.0, 0.3, 0.3, 1.0))


def density_jumps(dist):
    """Abscissae where the density is discontinuous (for piecewise integration)."""
    if isinstance(dist, UniformGain):
        return [dist.low, dist.high]
    if isinstance(dist, PiecewiseLinearEmpirical):
        return list(dist.h_knots)
    return []


def numeric_cdf(dist, h):
    """Simpson integral of the pdf on [0, h], split at density jumps.

    Panel endpoints are nudged inward by a relative 1e-12 so the one-sided
    pdf value right at a jump is never sampled; the truncation this adds is
    orders of magnitude below the 1e-8 comparison tolerance.
    """
    edges = [0.0] + [e for e in sorted(density_jumps(dist)) if 0.0 < e < h] + [h]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        nudge = 1e-12 * (b - a)
        total += simpson(dist.pdf, a + nudge, b - nudge, n=4001)
    return total


def all_distributions():
    return [
        ExponentialGain(1.0),
        ExponentialGain(0.4),
        UniformGain(0.0, 2.0),
        UniformGain(0.5, 2.5),
        PLE_EXAMPLE,
    ]


class TestClosedForms:
    def test_pdf_examples(self):
        assert ExponentialGain(1.0).pdf(0.0) == 1.0
        assert UniformGain(0.0, 2.0).pdf(1.0) == 0.5
        assert ExponentialGain(2.0).pdf(2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)

    def test_cdf_examples(self):
        assert ExponentialGain(1.0).cdf(0.0) == 0.0
        assert ExponentialGain(1.0).cdf(math.log(2.0)) == pytest.approx(0.5, rel=1e-15)
        assert UniformGain(0.0, 2.0).cdf(3.0) == 1.0

    def test_quantile_examples(self):
        assert ExponentialGain(1.0).quantile(0.5) == pytest.approx(math.log(2.0), rel=1e-15)
        assert UniformGain(0.0, 2.0).quantile(0.25) == 0.5
        assert ExponentialGain(1.0).quantile(0.0) == 0.0

    def test_cdf_at_infinity_is_one(self):
        for dist in all_distributions():
            assert dist.cdf(math.inf) == 1.0


class TestKinks:
    def test_each_law_lists_its_non_smooth_gains(self):
        assert ExponentialGain(1.0).kinks() == ()
        assert UniformGain(0.5, 2.5).kinks() == (0.5, 2.5)
        assert UniformGain(0.0, 2.0).kinks() == (2.0,)
        assert PLE_EXAMPLE.kinks() == (0.5, 1.5, 4.0)
        assert PiecewiseLinearEmpirical((0.2, 1.0), (0.0, 1.0)).kinks() == (0.2, 1.0)

    @pytest.mark.parametrize("dist", all_distributions())
    def test_pdf_is_smooth_between_kinks(self, dist):
        # away from the kinks the pdf varies continuously
        edges = [0.0, *dist.kinks(), dist.tail_point(1e-6) + 1.0]
        for a, b in zip(edges, edges[1:]):
            h = np.linspace(a, b, 2001)[1:-1]
            assert np.max(np.abs(np.diff(dist.pdf(h)))) < 0.01 * max(1.0, np.max(dist.pdf(h)))


class TestDomainErrors:
    def test_negative_gain_rejected(self):
        for dist in all_distributions():
            with pytest.raises(ValueError):
                dist.pdf(-1.0)
            with pytest.raises(ValueError):
                dist.cdf(-0.5)
            with pytest.raises(ValueError):
                dist.pdf(np.array([0.5, -0.1]))

    def test_quantile_domain(self):
        for dist in all_distributions():
            with pytest.raises(ValueError):
                dist.quantile(1.0)
            with pytest.raises(ValueError):
                dist.quantile(-0.01)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ExponentialGain(0.0)
        with pytest.raises(ValueError):
            ExponentialGain(-1.0)
        with pytest.raises(ValueError):
            UniformGain(-0.5, 1.0)
        with pytest.raises(ValueError):
            UniformGain(2.0, 2.0)
        with pytest.raises(ValueError):
            PiecewiseLinearEmpirical((0.0, 1.0), (0.1, 1.0))  # F must start at 0
        with pytest.raises(ValueError):
            PiecewiseLinearEmpirical((0.0, 1.0), (0.0, 0.9))  # F must end at 1
        with pytest.raises(ValueError):
            PiecewiseLinearEmpirical((1.0, 0.5), (0.0, 1.0))  # h must increase
        with pytest.raises(ValueError):
            PiecewiseLinearEmpirical((0.0, 1.0, 2.0), (0.0, 0.8, 0.5))  # F decreasing


class TestInvariants:
    @pytest.mark.parametrize("dist", all_distributions(), ids=lambda d: type(d).__name__ + repr(getattr(d, "mean_gain", getattr(d, "low", ""))))
    def test_cdf_monotone_bounded_and_consistent_with_pdf(self, dist):
        rng = np.random.default_rng(42)
        top = dist.tail_point(1e-9) * 1.1 + 0.5
        hs = np.sort(rng.uniform(0.0, top, size=1000))
        cdf = dist.cdf(hs)
        assert np.all(cdf >= 0.0) and np.all(cdf <= 1.0)
        assert np.all(np.diff(cdf) >= 0.0)
        # numeric integral of the pdf reproduces the cdf
        for h in hs[::100]:
            if h <= 0.0:
                continue
            assert abs(numeric_cdf(dist, float(h)) - dist.cdf(float(h))) <= 1e-8

    @pytest.mark.parametrize("dist", all_distributions(), ids=lambda d: type(d).__name__ + repr(getattr(d, "mean_gain", getattr(d, "low", ""))))
    def test_quantile_cdf_round_trip(self, dist):
        rng = np.random.default_rng(3)
        ps = rng.uniform(0.001, 0.999, size=500)
        hs = dist.quantile(ps)
        back = dist.cdf(hs)
        # strictly increasing regions only: where the pdf is positive
        strict = dist.pdf(hs) > 0.0
        assert np.all(np.abs(back[strict] - ps[strict]) <= 1e-10 * np.maximum(ps[strict], 1e-3))
        round_h = dist.quantile(back[strict])
        assert np.allclose(round_h, hs[strict], rtol=1e-10, atol=1e-12)

    def test_tail_point_bounds_tail_mass(self):
        for dist in all_distributions():
            for eps in (1e-6, 1e-12):
                t = dist.tail_point(eps)
                assert 1.0 - dist.cdf(t) <= eps * (1.0 + 1e-9)
        assert UniformGain(0.5, 2.5).tail_point(1e-12) == 2.5
        assert PLE_EXAMPLE.tail_point(1e-12) == 4.0


class _FixedUniform:
    """Caller-owned stream stub returning preset uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class TestSampling:
    def test_exponential_closed_form_draw(self):
        rng = _FixedUniform([1.0 - math.exp(-2.0)])
        assert ExponentialGain(1.0).quantile(rng.random()) == pytest.approx(2.0, rel=1e-14)

    def test_moments_within_four_standard_errors(self):
        n = 1_000_000
        cases = [
            (ExponentialGain(1.0), 1.0, 1.0),
            (UniformGain(0.5, 2.5), 1.5, (2.5 - 0.5) ** 2 / 12.0),
        ]
        # empirical law: mean and variance from the piecewise-constant density
        mean_ple = simpson(lambda h: h * PLE_EXAMPLE.pdf(h), 0.0, 4.0, n=40001)
        m2_ple = simpson(lambda h: h * h * PLE_EXAMPLE.pdf(h), 0.0, 4.0, n=40001)
        cases.append((PLE_EXAMPLE, mean_ple, m2_ple - mean_ple**2))
        for dist, mean, var in cases:
            rng = np.random.Generator(np.random.Philox(key=2024))
            draws = dist.quantile(rng.random(n))
            se_mean = math.sqrt(var / n)
            assert abs(float(np.mean(draws)) - mean) <= 4.0 * se_mean
            m4 = simpson(lambda h: (np.asarray(h) - mean) ** 4 * dist.pdf(h),
                         0.0, dist.tail_point(1e-14) + 1.0, n=40001)
            se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
            assert abs(float(np.var(draws, ddof=1)) - var) <= 4.0 * se_var

    def test_exponential_sample_mean_tolerance_from_spec(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        draws = ExponentialGain(1.0).quantile(rng.random(1_000_000))
        assert abs(float(np.mean(draws)) - 1.0) <= 0.004


class TestPiecewiseLinear:
    def test_pdf_is_piecewise_slope(self):
        d = PLE_EXAMPLE
        assert d.pdf(0.25) == pytest.approx(0.6, rel=1e-14)   # (0.3-0)/(0.5-0)
        assert d.pdf(1.0) == 0.0                               # flat segment
        assert d.pdf(2.0) == pytest.approx(0.28, rel=1e-14)   # (1-0.3)/(4-1.5)
        assert d.pdf(5.0) == 0.0

    def test_cdf_interpolates(self):
        d = PLE_EXAMPLE
        assert d.cdf(0.25) == pytest.approx(0.15, rel=1e-14)
        assert d.cdf(1.0) == pytest.approx(0.3, rel=1e-14)
        assert d.cdf(10.0) == 1.0

    def test_quantile_takes_smallest_gain_on_flat_runs(self):
        d = PLE_EXAMPLE
        # cdf is 0.3 on the whole flat run [0.5, 1.5]; the quantile picks 0.5
        assert d.quantile(0.3) == 0.5
        assert d.quantile(0.0) == 0.0

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("h,F\n0.0,0.0\n0.5,0.3\n1.5,0.3\n4.0,1.0\n")
        loaded = PiecewiseLinearEmpirical.from_csv(path)
        assert loaded == PLE_EXAMPLE

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("gain,prob\n0.0,0.0\n1.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            PiecewiseLinearEmpirical.from_csv(path)


class TestNaNRefused:
    @pytest.mark.parametrize("dist", all_distributions(), ids=lambda d: type(d).__name__)
    def test_every_public_evaluator_raises_on_nan(self, dist):
        for value in (math.nan, np.array([0.5, math.nan])):
            for evaluate in (dist.pdf, dist.cdf, dist.quantile):
                with pytest.raises(ValueError):
                    evaluate(value)
        assert dist.cdf(math.inf) == 1.0


# Laws with a plateau, with h[0] > 0 and with h[0] = 0, and two uniforms.
TABLE_LAWS = [
    PLE_EXAMPLE,
    PiecewiseLinearEmpirical((0.2, 0.7, 0.9, 1.4, 3.0), (0.0, 0.0, 0.4, 0.4, 1.0)),
    PiecewiseLinearEmpirical((0.0, 0.25, 2.0), (0.0, 0.75, 1.0)),
    UniformGain(0.3, 2.5),
    UniformGain(0.0, 2.0),
]
TABLE_IDS = ["plateau", "offset-plateau", "origin", "uniform-0.3-2.5", "uniform-0-2"]


class TestSegmentTables:
    @pytest.mark.parametrize("dist", TABLE_LAWS, ids=TABLE_IDS)
    def test_pdf_and_quantile_equal_the_reference_bits(self, dist):
        rng = np.random.default_rng(11)
        h, F = dist.h_knots, dist.cdf_knots
        gains = np.concatenate([rng.uniform(0.0, 1.2 * h[-1], 20_000), h,
                                np.nextafter(h, -np.inf).clip(0.0), [0.0, math.inf]])
        ps = np.concatenate([rng.random(20_000), F[:-1], [0.0, np.nextafter(1.0, 0.0)]])
        generic = PiecewiseLinearEmpirical._quantile_raw
        assert np.array_equal(dist._pdf_raw(gains), reference_piecewise_pdf(h, F, gains))
        assert np.array_equal(generic(dist, ps), reference_piecewise_quantile(h, F, ps))
        assert np.array_equal(dist._quantile_raw(ps), reference_piecewise_quantile(h, F, ps))

    @pytest.mark.parametrize("low, high", [(0.3, 2.5), (0.0, 2.0), (1.0, 1.001)])
    def test_uniform_is_the_two_knot_law(self, low, high):
        dist = UniformGain(low, high)
        two_knot = PiecewiseLinearEmpirical((low, high), (0.0, 1.0))
        rng = np.random.default_rng(5)
        ps = np.concatenate([rng.random(50_000), [0.0]])
        assert np.array_equal(dist._quantile_raw(ps), two_knot._quantile_raw(ps))
        inside = rng.uniform(low, high, 50_000)
        inside = inside[(inside >= low) & (inside < high)]
        assert np.all(dist.pdf(inside) == 1.0 / (high - low))
        closed = (inside - low) / (high - low)
        assert np.all(np.abs(dist.cdf(inside) - closed) <= np.spacing(closed))
        assert dist.kinks() == two_knot.kinks() and dist.tail_point(1e-9) == high
        assert (dist.low, dist.high) == (low, high)

    @pytest.mark.parametrize("low, high", [(2.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (0.0, math.inf)])
    def test_uniform_range_message(self, tmp_path, low, high):
        message = r"require 0 <= low < high, both finite"
        with pytest.raises(ValueError, match=message):
            UniformGain(low, high)
        config = tmp_path / "uniform.json"
        config.write_text(json.dumps({"channel": {"sigma2": 1.0, "users": [
            {"fading": {"kind": "uniform", "low": low, "high": high}, "pbar": 1.0}]},
            "mu": [1.0]}))
        with pytest.raises(ConfigError, match=r"^channel\.users\[0\]\.fading: " + message):
            load_config(str(config))
