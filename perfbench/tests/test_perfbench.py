"""Self-tests of the benchmark: generators, reference checkers, the tail
percentile and the tracing wrappers.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import generate as gen  # noqa: E402
import run  # noqa: E402
import salemtori as st  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize(
    "n, index, percentile",
    [(11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)],
)
def test_tail_leaves_ten_beyond(n, index, percentile):
    samples = [float(i) for i in range(n)]
    samples.reverse()
    value, pct = run.tail(samples)
    assert value == float(index)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(percentile)


def test_tail_without_ten_beyond_reports_minimum():
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)
    assert run.tail([float(i) for i in range(10)]) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# generators


@pytest.fixture(scope="module")
def box():
    return gen.special_box()


def test_box_is_the_acceptance_corpus(box):
    assert len(box) == gen.BOX_SIZE
    expected = [(q.coeffs, p.coeffs) for q, p, _cls in st.enumerate_special(gen.BOX_BOUND)]
    assert box == expected


def test_warmup_sextics_are_special_and_outside_the_box(box):
    sextics = gen.warmup_sextics()
    assert len(set(sextics)) == len(sextics) > 1
    for sextic in sextics:
        assert sextic not in {s for _q, s in box}
        assert st.classify_special(st.IntPoly(sextic)).is_special


def test_child_generation_matches_in_process_generation(box):
    assert gen.in_child("galois_for_seed", 5) == gen.galois_sample(box, 5)


def test_benchmark_process_does_not_import_sympy():
    code = (
        "import sys; sys.path[:0] = ['perfbench', 'src'];"
        " import run, workloads; print('sympy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_instances_other_seed_other_sample(name):
    w = workloads.WORKLOADS[name]
    first = repr(w.generate(7)).encode()
    assert repr(w.generate(7)).encode() == first
    assert repr(w.generate(8)).encode() != first


def test_galois_sample_has_equal_shares_of_every_class(box):
    sample = gen.galois_sample(box, 3)
    orders = [o for _s, o in sample]
    for o in gen.GALOIS_LABELS:
        assert orders.count(o) == gen.GALOIS_STRATA
    assert orders[:4] == [6, 12, 24, 48]
    assert len({s for s, _o in sample}) == len(sample)


def test_stratified_order_spreads_every_prefix():
    assert gen._bit_reversed(8) == [0, 4, 2, 6, 1, 5, 3, 7]
    members = list(range(40))
    order = gen.stratified_order(list(members), 8, random.Random(1))
    assert sorted(order) == members
    assert sorted(x // 5 for x in order[:8]) == list(range(8))
    assert sorted(x // 5 for x in order[:4]) == [0, 2, 4, 6]


def test_corpus_sample_is_the_whole_box(box):
    sample = gen.corpus_sample(box, 4)
    assert sorted(sample) == sorted(s for _q, s in box)


def test_mirror_pairs_share_the_galois_order(box):
    sextics = {s for _q, s in box}
    assert {gen.mirror(s) for s in sextics} == sextics
    orders = gen.galois_orders(box)
    for s in sorted(sextics)[:40]:
        assert gen.sympy_galois_order(s) == orders[s]
    counts = {o: sum(1 for s in sextics if orders[s] == o) for o in gen.GALOIS_LABELS}
    assert counts == {6: 16, 12: 30, 24: 12, 48: 306}


def test_lattice_table_factors():
    for name, (coeffs, family) in gen.FACTORS.items():
        p = st.IntPoly(coeffs)
        assert gen.sympy_irreducible(coeffs), name
        if family == "salem":
            assert st.is_salem(p).is_salem, name
        if family == "special":
            assert st.classify_special(p).is_special, name


def test_lattice_matrices_are_conjugates_of_the_blocks():
    for instance in gen.lattice_instances(5, rounds=2):
        if instance[0] != "matrix":
            continue
        _kind, blocks, rows = instance
        chi = (1,)
        for name, power in blocks:
            chi = gen.poly_mul(chi, gen.poly_pow(gen.FACTORS[name][0], power))
        assert st.char_poly(st.IntMatrix(rows)).coeffs == chi


# ---------------------------------------------------------------------------
# reference checkers count wrong answers


def test_stubbed_wrong_answer_counts_in_fail_ratio(monkeypatch):
    w = workloads.WORKLOADS["lattice-maps"]
    instances = [
        ("sextic", ("phi5", "salem2a")),
        ("sextic", ("phi8", "salem2b")),
        ("sextic", ("phi3", "phi5")),
    ]
    real = st.first_dynamical_degree_salem
    calls = []

    def stub(p):
        calls.append(p)
        answer = real(p)
        return (not answer) if len(calls) == 2 else answer

    monkeypatch.setattr(st, "first_dynamical_degree_salem", stub)
    outcomes, durations, _elapsed = run.closed_loop(w, instances, 60.0)
    assert len(durations) == 3
    bad = run.check_all(w, instances, outcomes)
    assert [i for i, _p in bad] == [1]
    assert run._failed_count(bad) / len(outcomes) == pytest.approx(1 / 3)


def test_exception_counts_as_failure():
    w = workloads.WORKLOADS["lattice-maps"]
    outcomes, _d, _e = run.closed_loop(w, [("salem", 3)], 60.0)
    assert outcomes[0][0] is None and "OddDegreeRequested" in outcomes[0][1]
    assert run._failed_count(run.check_all(w, [("salem", 3)], outcomes)) == 1


def test_galois_checker_compares_with_sympy_order():
    w = workloads.WORKLOADS["galois-census"]
    sextic = (1, 3, 5, 5, 5, 3, 1)
    assert w.check((sextic, 6), {"label": "H6", "order": 6}, None) == []
    assert w.check((sextic, 6), {"label": "G12", "order": 12}, None) != []


def test_lattice_checker_rejects_wrong_route_and_degrees():
    w = workloads.WORKLOADS["lattice-maps"]
    blocks = (("phi3", 1), ("salem2a", 1))
    instance = ("matrix", blocks, tuple(map(tuple, gen.block_diagonal(blocks))))
    result = w.run(instance)
    assert w.check(instance, result, None) == []
    wrong_route = dict(result, route="none")
    assert w.check(instance, wrong_route, None) != []
    wrong_lambda = dict(result, lambdas=[result["lambdas"][0]] * 3)
    assert w.check(instance, wrong_lambda, None) != []


def test_salem_checker_asks_sympy_about_irreducibility():
    w = workloads.WORKLOADS["lattice-maps"]
    instances = [("salem", 4), ("salem", 4)]
    right = w.run(instances[0])
    # phi3^2 is reciprocal and monic but reducible; the other checks fail too
    wrong = dict(right, poly=[1, 2, 3, 2, 1])
    outcomes = [(right, None), (wrong, None)]
    refs = w.references(instances, [right, wrong])
    assert refs == {tuple(right["poly"]): True, (1, 2, 3, 2, 1): False}
    assert w.check(instances[0], right, refs) == []
    assert "sympy finds the generator's output reducible" in w.check(instances[1], wrong, refs)
    assert [i for i, _p in run.check_all(w, instances, outcomes)] == [1, 1]


def test_corpus_checker_rejects_each_property():
    w = workloads.WORKLOADS["corpus-sweep"]
    sextic = (1, 3, 5, 5, 5, 3, 1)
    result = w.run(sextic)
    assert w.check(sextic, result, None) == []
    for key in ("first_salem", "fibration", "irreducible"):
        assert w.check(sextic, dict(result, **{key: not result[key]}), None) != []
    shifted = dict(result)
    shifted["degrees"] = dict(result["degrees"])
    lo, hi = (Fraction(t) for t in result["degrees"]["lambdas"][1])
    width = hi - lo
    shifted["degrees"]["lambdas"] = list(result["degrees"]["lambdas"])
    shifted["degrees"]["lambdas"][1] = workloads._interval((hi + width, hi + 2 * width))
    assert w.check(sextic, shifted, None) != []


# ---------------------------------------------------------------------------
# tracing


def test_tracing_preserves_results_and_restores_functions():
    w = workloads.WORKLOADS["lattice-maps"]
    instances = gen.lattice_instances(2, rounds=1)
    plain = [w.run(i) for i in instances]
    original = (st.dynamical_degrees, st.salem.factor_over_z, st.RootSystem.refine)
    tracer = tracing.Tracer()
    tracer.install()
    windows = {}
    try:
        assert st.dynamical_degrees is not original[0]
        assert st.salem.factor_over_z is not original[1]
        traced = []
        for k, instance in enumerate(instances):
            tracer.item = k
            t0 = run.time.perf_counter()
            traced.append(w.run(instance))
            windows[k] = (t0, run.time.perf_counter())
    finally:
        tracer.uninstall()
    assert (st.dynamical_degrees, st.salem.factor_over_z, st.RootSystem.refine) == original
    assert traced == plain

    assert tracer.misplaced(windows) == []
    assert min(tracer.self_times()) >= 0
    metrics = tracer.metrics(len(instances))
    names = [name for name, _u, _b in tracing.PER_LAYER]
    assert set(names) - set(metrics) == {"trace.overhead_ratio"}
    matrices = sum(1 for i in instances if i[0] == "matrix")
    assert metrics["salem.dynamical_degrees.calls"] == matrices
    assert metrics["salem.is_salem.calls"] >= 1


def test_misplaced_spans_are_reported():
    tracer = tracing.Tracer()
    windows = {0: (0.0, 10.0), 1: (10.0, 20.0)}
    # [name, start, end, parent, item, extra]
    tracer.spans = [
        ["a.f", 1.0, 5.0, None, 0, None],
        ["a.g", 2.0, 3.0, 0, 0, None],
        ["a.g", 2.5, 4.0, 0, 0, None],  # overlaps its sibling
        ["a.h", 4.5, 6.0, 0, 0, None],  # ends after its parent
        ["a.f", 9.0, 11.0, None, 0, None],  # leaves instance 0
        ["a.g", 12.0, 13.0, 0, 1, None],  # parent is in instance 0
        ["a.f", 14.0, 15.0, None, 2, None],  # instance 2 was never timed
    ]
    problems = tracer.misplaced(windows)
    assert [p.split(" (")[0] for p in problems] == [
        "span 2", "span 3", "span 4", "span 5", "span 6",
    ]
    assert "overlaps" in problems[0]
    assert "outside its parent" in problems[1]
    assert "outside its instance" in problems[2]
    assert "belongs to no timed instance" in problems[-1]
    tracer.spans = tracer.spans[:2]
    assert tracer.misplaced(windows) == []


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == {n for n, _u, _b in tracing.PER_LAYER}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice-maps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "salemtori" in done.stderr
    assert '"correct"' not in done.stdout
