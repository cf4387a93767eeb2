"""The release gate as a pytest module.

One full selftest runs per session (two passes of checks 1-9: the second
pass feeds the determinism check).  Every criterion prints its own verdict
line and asserts independently.
"""

import numpy as np
import pytest

from factorcavity import acceptance, assumptions, models


@pytest.fixture(scope="module")
def selftest():
    results, csv_text = acceptance.run_selftest(acceptance.DEFAULT_SEED)
    return {r.criterion: r for r in results}, csv_text


def _check(selftest, key):
    results, _ = selftest
    result = results[key]
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_nishimori_identity(selftest):
    _check(selftest, "1 nishimori identity")


def test_criterion_02_planted_equivalence(selftest):
    _check(selftest, "2 planted-construction equivalence")


def test_criterion_03_sym_constants(selftest):
    _check(selftest, "3 sym constants")


def test_criterion_04_uniform_atom_annealed(selftest):
    _check(selftest, "4 uniform-atom equals annealed")


def test_criterion_05_information_term(selftest):
    _check(selftest, "5 information term")


def test_criterion_06_sbm_comparator(selftest):
    _check(selftest, "6 sbm comparator identity")


def test_criterion_07_finite_size_consistency(selftest):
    _check(selftest, "7 finite-size consistency")


def test_criterion_08_pos_falsifier(selftest):
    _check(selftest, "8 pos falsifier")


def test_criterion_09_bp_trees(selftest):
    _check(selftest, "9 bp exact on trees")


def test_criterion_10_selftest_determinism(selftest):
    results, csv_text = selftest
    result = results["10 selftest determinism"]
    print(result.line())
    assert result.passed, result.line()
    assert csv_text.splitlines()[0] == "# factor-cavity schema v1"
    # the emitted body contains one row per criterion
    assert len(csv_text.splitlines()) == 2 + len(results)


def test_verdicts_stable_under_seed_variation():
    # the statistical checks must hold with another seed even though the
    # sampled values differ
    seed = acceptance.DEFAULT_SEED + 1
    for fn in (acceptance.criterion_4_uniform_atom,
               acceptance.criterion_5_information_term,
               acceptance.criterion_7_finite_size,
               acceptance.criterion_9_bp_trees):
        result = fn(seed)
        print(result.line())
        assert result.passed, result.line()


def test_criterion_08_runs_the_falsifier_on_the_assortative_table_only(monkeypatch):
    # ldgm and kspin are certified, so criterion 8 draws no trials for them
    calls = []
    falsifier = assumptions.check_pos

    def spy(family, *, trials, seed=0):
        calls.append((family, trials, seed))
        return falsifier(family, trials=trials, seed=seed)

    monkeypatch.setattr(assumptions, "check_pos", spy)
    assert acceptance.criterion_8_pos_falsifier(acceptance.DEFAULT_SEED).passed
    assert [(trials, seed) for _, trials, seed in calls] == [(10_000, acceptance.DEFAULT_SEED)]
    assortative = models.sbm(2, 1.0, 3, assortative=True).family
    assert np.array_equal(calls[0][0].tables[2], assortative.tables[2])
