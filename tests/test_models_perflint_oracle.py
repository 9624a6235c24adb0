"""Unit tests for the Perflint baseline and the Oracle."""

import hashlib
import json

import numpy as np
import pytest

from repro.appgen.config import GeneratorConfig
from repro.containers.base import OpCost
from repro.containers.registry import DSKind
from repro.machine.configs import CORE2
from repro.models.oracle import oracle_select
from repro.models.perflint import PerflintModel, asymptotic_row


def stats_with(finds=0, inserts=0, erases=0, iterate_cost=0,
               avg_n=100, pushes=0):
    calls = max(1, finds + inserts + erases + pushes)
    return OpCost(finds=finds, inserts=inserts, erases=erases,
                  iterate_cost=iterate_cost, iterates=1,
                  push_backs=pushes, total_calls=calls,
                  size_sum=int(avg_n * calls), max_size=avg_n * 2)


class TestAsymptoticRows:
    def test_vector_find_is_linear(self):
        small = asymptotic_row(DSKind.VECTOR, stats_with(finds=10,
                                                         avg_n=100))
        large = asymptotic_row(DSKind.VECTOR, stats_with(finds=10,
                                                         avg_n=1000))
        assert large[0] == pytest.approx(10 * small[0])

    def test_set_find_is_logarithmic(self):
        small = asymptotic_row(DSKind.SET, stats_with(finds=10,
                                                      avg_n=16))
        large = asymptotic_row(DSKind.SET, stats_with(finds=10,
                                                      avg_n=256))
        assert large[0] == pytest.approx(2 * small[0])

    def test_list_insert_is_constant(self):
        row = asymptotic_row(DSKind.LIST, stats_with(inserts=10,
                                                     avg_n=5000))
        assert row[1] == pytest.approx(10.0)

    def test_hash_everything_constant(self):
        row = asymptotic_row(DSKind.HASH_SET,
                             stats_with(finds=7, inserts=3, avg_n=9999))
        assert row[0] == pytest.approx(7.0)
        assert row[1] == pytest.approx(3.0)

    def test_log_guard_for_tiny_n(self):
        row = asymptotic_row(DSKind.SET, stats_with(finds=1, avg_n=0))
        assert np.isfinite(row).all()


class TestPerflintFit:
    def _samples(self):
        """Synthetic samples where set is genuinely cheaper for find-heavy
        streams and vector cheaper for iterate-heavy ones."""
        samples = []
        for finds, iterates, n in ((200, 0, 400), (150, 5, 300),
                                   (0, 300, 200), (5, 250, 350),
                                   (100, 100, 100), (50, 20, 50)):
            stats = stats_with(finds=finds, iterate_cost=iterates * 10,
                               avg_n=n, inserts=10)
            runtimes = {
                DSKind.VECTOR: int(finds * 0.75 * n * 2 + iterates * 10
                                   + 10 * n + 500),
                DSKind.SET: int((finds + 10) * np.log2(max(2, n)) * 12
                                + iterates * 30 + 500),
            }
            samples.append((stats, runtimes))
        return samples

    def test_fit_produces_nonnegative_coefficients(self):
        model = PerflintModel.fit(self._samples())
        for coef in model.coefficients.values():
            assert (coef >= 0).all()

    def test_fit_requires_samples(self):
        with pytest.raises(ValueError):
            PerflintModel.fit([])

    def test_estimate_tracks_regression_targets(self):
        samples = self._samples()
        model = PerflintModel.fit(samples)
        # The fitted estimates should correlate with the true runtimes.
        stats, runtimes = samples[0]
        est_vec = model.estimate(DSKind.VECTOR, stats)
        est_set = model.estimate(DSKind.SET, stats)
        assert (est_set < est_vec) == (
            runtimes[DSKind.SET] < runtimes[DSKind.VECTOR]
        )

    def test_estimate_unknown_kind(self):
        model = PerflintModel.fit(self._samples())
        with pytest.raises(ValueError):
            model.estimate(DSKind.AVL_MAP, stats_with(finds=1))

    def test_suggest_vector_to_set_on_find_heavy(self):
        model = PerflintModel.fit(self._samples())
        find_heavy = stats_with(finds=500, avg_n=400, inserts=10)
        assert model.suggest(DSKind.VECTOR, find_heavy) == DSKind.SET

    def test_suggest_keeps_vector_on_iterate_heavy(self):
        model = PerflintModel.fit(self._samples())
        iterate_heavy = stats_with(iterate_cost=5000, avg_n=50,
                                   inserts=10)
        assert model.suggest(DSKind.VECTOR, iterate_heavy) \
            == DSKind.VECTOR

    def test_keyed_suggestion_reads_as_map(self):
        model = PerflintModel.fit(self._samples())
        find_heavy = stats_with(finds=500, avg_n=400, inserts=10)
        assert model.suggest(DSKind.VECTOR, find_heavy, keyed=True) \
            == DSKind.MAP

    def test_set_has_no_supported_replacement(self):
        model = PerflintModel.fit(self._samples())
        assert not model.supports(DSKind.SET)
        assert model.supports(DSKind.VECTOR)

    def test_unsupported_original_rejected(self):
        model = PerflintModel.fit(self._samples())
        with pytest.raises(ValueError):
            model.suggest(DSKind.AVL_SET, stats_with(finds=1))

    def test_fit_synthetic_end_to_end(self):
        model = PerflintModel.fit_synthetic(n_apps=6)
        assert DSKind.VECTOR in model.coefficients
        assert DSKind.SET in model.coefficients
        suggestion = model.suggest(
            DSKind.VECTOR, stats_with(finds=300, avg_n=300)
        )
        assert suggestion in (DSKind.VECTOR, DSKind.SET)

    @pytest.mark.parametrize("config,n_apps,digest", [
        (GeneratorConfig.small(), 12,
         "10f96dcc2881044a7dfd619f783a3c8261557fda1ed6e155a35b8cbfbd3ba80b"),
        (GeneratorConfig(), 6,
         "6718c89c73299480ae1ea5c9dbf7c2738324c66ddd0a537d774c9a63e27a1f9d"),
    ], ids=["small", "default"])
    def test_fit_synthetic_coefficients_are_pinned(self, config, n_apps,
                                                   digest):
        """SHA-256 of the exact coefficients; pinned when the fit read
        the original kind's stats from a second, instrumented run."""
        model = PerflintModel.fit_synthetic(CORE2, config, n_apps=n_apps)
        payload = {kind.value: [float(x).hex() for x in coef]
                   for kind, coef in model.coefficients.items()}
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestOracle:
    def test_picks_minimum(self):
        runtimes = {DSKind.VECTOR: 50, DSKind.SET: 40, DSKind.LIST: 90}
        assert oracle_select(runtimes) == DSKind.SET

    def test_runner_form(self):
        costs = {DSKind.VECTOR: 3, DSKind.LIST: 1}
        assert oracle_select(
            runner=lambda kind: costs[kind],
            candidates=list(costs),
        ) == DSKind.LIST

    def test_requires_input(self):
        with pytest.raises(ValueError):
            oracle_select()
        with pytest.raises(ValueError):
            oracle_select(runtimes={})
