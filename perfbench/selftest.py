"""Self-tests of the benchmark: the checks accept the committed outputs and
catch a perturbed record, fraction or mass value; the metric lists match
BENCHMARK.json; span self times add up.  Run with

    PYTHONPATH=src python3 perfbench/selftest.py

The file name keeps pytest's default collection, and so the repository's own
test suite, from picking these up; `python3 -m pytest perfbench/selftest.py`
also runs them.
"""

import json
import os
from fractions import Fraction
from types import SimpleNamespace

import checks
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REF = checks.load_reference()


def _record(row, n=100, trial=0):
    result, q, b, g_p, g_alpha, g_t = row
    return SimpleNamespace(n_vars=n, trial=trial, result=result, q_splits=q,
                           b_leaves=b, g_p=g_p, g_alpha=g_alpha, g_t=g_t,
                           runtime_s=1.0)


def test_committed_records_pass_and_perturbed_ones_fail():
    rows = REF["mc-alpha10"]["records"]
    assert rows
    for name, row in rows.items():
        key = tuple(int(x) for x in name.split("/"))
        assert checks.check_mc_record(key, _record(row), rows) == []
    name, row = next(iter(rows.items()))
    key = tuple(int(x) for x in name.split("/"))
    more_splits = [row[0], row[1] + 1, row[2] + 1] + row[3:]  # still B = Q + 1
    assert checks.check_mc_record(key, _record(more_splits), rows)
    moved_g = row[:3] + [row[3] - 0.5] + row[4:]
    assert checks.check_mc_record(key, _record(moved_g), rows)
    # B = Q + 1 holds for unsat records at any seed
    assert checks.check_mc_record(key, _record(row[:2] + [row[2] + 1] + row[3:]))


def test_replay_must_match_exactly():
    row = next(iter(REF["mc-alpha10"]["records"].values()))
    assert checks.check_replay("k", _record(row), list(row)) == []
    assert checks.check_replay("k", _record(row), [row[0], row[1] + 1] + row[2:])


def test_omega_fit_band():
    def est(omega):
        return SimpleNamespace(omega=omega, std_error=5e-4)
    assert checks.check_omega_fit(est(0.0352)) == []
    assert checks.check_omega_fit(est(0.040))
    assert checks.check_omega_fit(est(0.024))


def test_committed_fractions_pass_and_perturbed_ones_fail():
    refs = REF["oracle-n8"]["instances"]
    assert refs
    for key, (t_star, b_star) in refs.items():
        b = Fraction(b_star)
        assert checks.check_oracle_instance(key, t_star, b, float(b), 0.05,
                                            (t_star, b_star)) == []
    key, (t_star, b_star) = next(iter(refs.items()))
    b = Fraction(b_star)
    nudged = b + Fraction(1, 10 ** 9)
    assert checks.check_oracle_instance(key, t_star, nudged, float(b), 0.05,
                                        (t_star, b_star))
    assert checks.check_oracle_instance(key, t_star + 1, b, float(b), 0.05,
                                        (t_star, b_star))


def test_monte_carlo_mean_far_from_b_star_fails():
    b = Fraction(12, 5)
    limit = checks.MC_SE_LIMIT
    assert checks.check_oracle_instance("k", 2, b, 2.4 + 0.9 * limit * 0.01, 0.01) == []
    assert checks.check_oracle_instance("k", 2, b, 2.4 + 1.1 * limit * 0.01, 0.01)
    assert checks.check_oracle_instance("k", 2, b, 2.4, 0.0) == []


def test_committed_mass_curves_pass_and_perturbed_ones_fail():
    curves = REF["meanfield-alpha10"]["mass_curves"]
    assert set(curves) == {str(n) for n in workloads.MeanfieldAlpha10.ANNEALED_N}
    for n, masses in curves.items():
        assert checks.check_mass_curve(n, list(masses), masses) == []
        bumped = list(masses)
        bumped[len(bumped) // 2] *= 1 + 1e-10
        assert checks.check_mass_curve(n, bumped, masses)
        assert checks.check_mass_curve(n, masses[:-1], masses)


def test_meanfield_value_checks():
    for a0, ref in checks.T1_REFERENCE.items():
        assert checks.check_omega_theory(a0, ref + 0.001) == []
        assert checks.check_omega_theory(a0, ref + 0.002)
    assert checks.check_annealed_trend({75: 0.060, 150: 0.048}) == []
    assert checks.check_annealed_trend({75: 0.048, 150: 0.060})
    up = REF["meanfield-alpha10"]["upper_sat_omega_bits"]
    assert checks.check_upper_sat(up, up) == []
    assert checks.check_upper_sat(up * (1 + 1e-5), up)
    assert checks.check_alpha_l(3.0035) == []
    assert checks.check_alpha_l(2.9)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    def triples(entries):
        return [(m["name"], m["unit"], m["better"]) for m in entries]
    assert triples(bench["end_to_end"]) == list(workloads.END_TO_END)
    assert triples(bench["per_layer"]) == list(workloads.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()
    with tracer.span("bench"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10000))
            sum(range(10000))
        with tracer.span("b"):
            sum(range(10000))
    selfs = tracer.self_by_name()
    assert abs(sum(selfs.values()) - tracer.total("bench")) < 1e-12
    assert tracer.calls("b") == 2
    assert all(v >= 0 for v in selfs.values())


def test_wrapped_generator_leaves_consumer_time_to_the_caller():
    tracer = Tracer()
    seen = []

    def gen(k):
        for i in range(k):
            yield i

    traced = tracer.wrap_generator(gen, "item", lambda a, item, s: seen.append(item))
    with tracer.span("bench"):
        assert list(traced(3)) == [0, 1, 2]
    assert seen == [0, 1, 2]
    assert tracer.calls("item") == 4  # three items and the exhausting call


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for fn in tests:
        fn()
        print("ok", fn.__name__)
    print(f"{len(tests)} self-tests passed")
