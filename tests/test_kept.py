"""What a descriptor keeps after first use: one eigendecomposition of the
graph form serves ``validate``, the Fitzpatrick carrier, a map's
enlargement slices and its skew witness, repeated
verdicts on one operator decompose nothing again, a linear sum check
solves all its points at once, and the first summand keeps the sum
relation and the carrier pair per second summand, so a repeated sum check
decomposes nothing and answers bitwise as a cold one.  Nothing kept refers
back to a descriptor, so every descriptor is freed by reference counting
alone, in whichever order its sums were checked.  Concurrent first uses
take no lock and agree with a serial run."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from enlargekit import operators as ops
from enlargekit.certificates import (
    non_enlargeable_single_valued,
    random_monotone_matrix,
    sum_fitz_exactness,
    sum_maximality,
    sum_non_enlargeable,
)
from enlargekit.enlargement import enl_member, enl_slice_linear
from enlargekit.fitzpatrick import CarrierPair, fitz_bruteforce, fitz_evaluator, partial_inf_conv
from enlargekit.operators import (
    Box,
    LinearMapOp,
    LinearRelationOp,
    NormalConeOp,
    SumOp,
    TranslatedOp,
)


def _counted(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _skew(rng, n):
    k = rng.normal(size=(n, n))
    return LinearMapOp(0.5 * (k - k.T))


def _relation(rng, n, skew=False):
    """{(Q_k a, Q_k M a + Q_perp b)}, k = n / 2: maximal monotone with
    domain ran Q_k, M monotone (skew with ``skew``)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    k = n // 2
    g = rng.normal(size=(k, k)) / np.sqrt(k)
    m = 0.5 * (g - g.T) if skew else g @ g.T + 0.5 * (g - g.T)
    cols = np.block([[q[:, :k], np.zeros((n, n - k))], [q[:, :k] @ m, q[:, k:]]])
    return LinearRelationOp.from_graph_columns(cols, n)


def _summand_pairs(n, seed):
    """Seeded map + skew map, relation + skew relation, map + map, and a
    skew map + skew relation, whose sum is non-enlargeable; the same seed
    builds equal, distinct descriptors."""
    rng = np.random.default_rng(seed)
    return [(random_monotone_matrix(n, rng), _skew(rng, n)),
            (_relation(rng, n), _relation(rng, n, skew=True)),
            (random_monotone_matrix(n, rng), random_monotone_matrix(n, rng, rank_deficient=True)),
            (_skew(rng, n), _relation(rng, n, skew=True))]


def _check(rep):
    """Every output of a sum check, exact: arrays as bytes."""
    return (rep.max_gap, rep.points_tested, rep.maximality, rep.mode,
            [(i, v.tobytes(), r) for i, v, r in rep.exactness_witnesses])


def _outcome(call):
    """A certificate's fields, or the type and message of what it raised."""
    try:
        out = call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return vars(out)


def test_a_map_knows_its_domain_without_an_svd(monkeypatch):
    rng = np.random.default_rng(3)
    a = random_monotone_matrix(40, rng)
    calls = _counted(monkeypatch, "svd")
    assert ops.graph_member(a, rng.normal(size=40), rng.normal(size=40)) is False
    assert a.values_at(rng.normal(size=(3, 40)), np.random.SeedSequence(0))[1].all()
    assert ops.dom_subspace(a).dim == 40
    assert calls == []


def test_repeated_membership_tests_decompose_the_map_once(monkeypatch):
    rng = np.random.default_rng(1)
    a = random_monotone_matrix(40, rng)
    points = [(rng.normal(size=40), rng.normal(size=40)) for _ in range(10)]
    calls = _counted(monkeypatch, "eigh")
    verdicts = [enl_member(a, x, xs, 0.5) for x, xs in points]
    assert all(v.method == "closed_form" for v in verdicts)
    assert len(calls) <= 1


def test_slices_and_the_skew_witness_read_the_kept_carrier(monkeypatch):
    rng = np.random.default_rng(5)
    a = random_monotone_matrix(40, rng)
    assert a.validate().maximal
    points = [rng.normal(size=40) for _ in range(10)]
    calls = _counted(monkeypatch, "eigh")
    slices = [enl_slice_linear(a, x, 0.5) for x in points]
    cert = non_enlargeable_single_valued(a)
    assert calls == []
    assert all(s.carrier.dim == 40 for s in slices)
    assert not cert.verdict and cert.witness is not None


def test_a_linear_sum_check_decomposes_each_form_once(monkeypatch):
    rng = np.random.default_rng(2)
    a, b = random_monotone_matrix(40, rng), _skew(rng, 40)
    calls, svds = _counted(monkeypatch, "eigh"), _counted(monkeypatch, "svd")
    first = sum_fitz_exactness(a, b, n_points=10, seed=0)
    # the two summands' carriers, the sum relation's, and the pair's factors
    assert len(calls) <= 4
    calls.clear()
    svds.clear()
    again = sum_fitz_exactness(a, b, n_points=10, seed=0)
    # a keeps the sum relation (with its carrier) and the pair for b
    assert calls == [] and svds == []
    assert first.max_gap <= 1e-9 and again.max_gap == first.max_gap
    assert first.maximality is True


def test_a_linear_sum_check_solves_all_its_points_at_once(monkeypatch):
    rng = np.random.default_rng(6)
    a, b = random_monotone_matrix(40, rng), _skew(rng, 40)
    solves, lstsqs = [], []
    real_solve, real_lstsq = CarrierPair.solve, np.linalg.lstsq
    monkeypatch.setattr(CarrierPair, "solve", lambda self, x, y: solves.append(x.shape)
                        or real_solve(self, x, y))
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: lstsqs.append(1)
                        or real_lstsq(*args, **kwargs))
    rep = sum_fitz_exactness(a, b, n_points=100, seed=0)
    assert rep.points_tested == 100 and rep.max_gap <= 1e-6
    assert solves == [(100, 40)]
    assert lstsqs == []


def test_repeated_application_of_a_relation_decomposes_nothing(monkeypatch):
    rng = np.random.default_rng(9)
    rel = _relation(rng, 40)
    x = rng.normal(size=(5, 40))
    svds, lstsqs = _counted(monkeypatch, "svd"), _counted(monkeypatch, "lstsq")
    calls = [lambda: ops.apply(rel, x[0]),
             lambda: rel.values_at(x, np.random.SeedSequence(0)),
             lambda: ops.graph_member(rel, x[1], x[2])]
    for call in calls:
        call()
    svds.clear()
    lstsqs.clear()
    for call in calls * 3:
        call()
    assert svds == [] and lstsqs == []


def _convs(a, b, points):
    """partial_inf_conv of the summands' evaluators in both orders."""
    fa, fb = fitz_evaluator(a), fitz_evaluator(b)
    out = []
    for f1, f2 in ((fa, fb), (fb, fa)):
        for x, y in points:
            r = partial_inf_conv(f1, f2, x, y)
            out.append((r.value, None if r.witness is None else r.witness.tobytes(),
                        r.inner_residual))
    return out


# what the sum layer answers for a + b: the check in both orders, the
# maximality and non-enlargeability certificates, and partial_inf_conv
_SUM_OUTPUTS = [
    lambda a, b, points: _check(sum_fitz_exactness(a, b, n_points=12, seed=3)),
    lambda a, b, points: _check(sum_fitz_exactness(b, a, n_points=12, seed=4)),
    lambda a, b, points: _outcome(lambda: sum_maximality(a, b)),
    lambda a, b, points: _outcome(lambda: sum_non_enlargeable(a, b)),
    _convs,
]


@pytest.mark.parametrize("n", [20, 40])
def test_kept_sums_answer_bitwise_as_cold_ones(n):
    rng = np.random.default_rng(8)
    for i, (a, b) in enumerate(_summand_pairs(n, seed=n)):
        # graph points of the sum, where the carriers are compatible, and
        # random points
        points = ops.sample_graph(SumOp(_summand_pairs(n, seed=n)[i]), 3, 2.0, seed=i)
        points += [(rng.normal(size=n), rng.normal(size=n)) for _ in range(3)]
        # each output on fresh copies of the summands, then all of them
        # twice on one pair, the second time from what the first kept
        cold = [out(*_summand_pairs(n, seed=n)[i], points) for out in _SUM_OUTPUTS]
        assert [out(a, b, points) for out in _SUM_OUTPUTS] == cold
        assert [out(a, b, points) for out in _SUM_OUTPUTS] == cold


def _kept_sums(a, b):
    """The sum relation and the carrier pair that a keeps for b."""
    return SumOp((a, b)).relation, fitz_evaluator(a).carrier_pair(fitz_evaluator(b))


def test_kept_sums_free_with_their_descriptors_in_both_orders():
    rng = np.random.default_rng(7)
    gc.disable()
    try:
        a, b = random_monotone_matrix(4, rng), _relation(rng, 4, skew=True)
        for pair in ((a, b), (b, a), (a, a)):
            assert sum_fitz_exactness(*pair, n_points=6, seed=0).max_gap <= 1e-9
        kept = [*_kept_sums(a, b), *_kept_sums(b, a), *_kept_sums(a, a)]
        refs = [weakref.ref(o) for o in (a, b, *kept)]
        del a, b, pair, kept
        assert [r() for r in refs] == [None] * 8
    finally:
        gc.enable()


def test_a_kept_sum_goes_with_its_second_summand():
    rng = np.random.default_rng(9)
    gc.disable()
    try:
        a, b = random_monotone_matrix(4, rng), _skew(rng, 4)
        assert sum_fitz_exactness(a, b, n_points=6, seed=0).max_gap <= 1e-9
        refs = [weakref.ref(o) for o in _kept_sums(a, b)]
        # a set C too: the cone-sum QP that a keeps for it holds no C
        sets = [Box(-np.ones(4), np.ones(4)), ops.Ball(np.full(4, 0.1), 1.0),
                ops.Polytope((*np.eye(4), -np.ones(4)))]
        for c in sets:
            fitz_evaluator(SumOp((a, NormalConeOp(c))))
            refs.append(weakref.ref(fitz_evaluator(a).cone_qp(c)))
        assert len(a.__dict__["sums"]) == 4
        del b, c, sets
        assert [r() for r in refs] == [None] * 5
        assert len(a.__dict__["sums"]) == 0
        assert a.validate().maximal
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["box", "skew"])
def test_kept_data_frees_with_its_descriptors(kind):
    rng = np.random.default_rng(3)
    gc.disable()
    try:
        a = random_monotone_matrix(3, rng)
        b = NormalConeOp(Box(-np.ones(3), np.ones(3))) if kind == "box" else _skew(rng, 3)
        s = SumOp((a, b))
        x, xs = 0.5 * np.ones(3), rng.normal(size=3)
        assert enl_member(s, x, xs, 0.5).method == "closed_form"
        rep = sum_fitz_exactness(a, b, n_points=6, seed=0)
        assert rep.max_gap <= 1e-9
        assert fitz_bruteforce(s, x, xs, count=200).best_pair is not None
        refs = [weakref.ref(o) for o in (a, b, s, rep.sum_op)]
        del a, b, s, rep
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def _nested(a, box, shift):
    """Fresh descriptors whose first uses nest in opposite orders: a
    translated sum, and a sum with a translated term."""
    m, cone = LinearMapOp(a), NormalConeOp(box)
    return [TranslatedOp(SumOp((m, cone)), shift, shift),
            SumOp((TranslatedOp(m, shift, shift), cone)), SumOp((m, cone)), m]


def _answers(ops_, x, xs, swap=False):
    reports = {i: ops_[i].validate() for i in ((1, 0, 2, 3) if swap else range(4))}
    return [reports[i] for i in range(4)], [fitz_evaluator(op).evaluate(x, xs) for op in ops_[2:]]


def test_concurrent_first_uses_agree_with_a_serial_run(monkeypatch):
    rng = np.random.default_rng(4)
    a, box = random_monotone_matrix(4, rng).matrix, Box(-np.ones(4), np.ones(4))
    shift, x, xs = rng.normal(size=4), 0.3 * np.ones(4), rng.normal(size=4)
    want = _answers(_nested(a, box, shift), x, xs)
    workers, rounds = 4, 25
    shared = [_nested(a, box, shift) for _ in range(rounds)]
    got, start = [], threading.Barrier(workers)
    # a slow report widens the window in which two threads hold the first
    # use of a translated sum and of a sum with a translated term
    for kind in (SumOp, TranslatedOp):
        monkeypatch.setattr(kind, "_report", lambda self, real=kind._report:
                            time.sleep(0.002) or real(self))

    def work(k):
        for ops_ in shared:
            start.wait(timeout=10)
            got.append(_answers(ops_, x, xs, swap=k % 2 == 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True)
                   for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == workers * rounds
    assert all(answers == want for answers in got)


def test_concurrent_first_sum_checks_agree_with_a_serial_run(monkeypatch):
    def fresh():
        rng = np.random.default_rng(10)
        return random_monotone_matrix(6, rng), _relation(rng, 6, skew=True)

    def answers(a, b, swap=False):
        orders = ((b, a), (a, b)) if swap else ((a, b), (b, a))
        got = {p is a: _check(sum_fitz_exactness(p, q, n_points=9, seed=1)) for p, q in orders}
        return got[True], got[False]

    want = answers(*fresh())
    workers, rounds = 4, 25
    shared = [fresh() for _ in range(rounds)]
    got, start = [], threading.Barrier(workers)
    # slow builds widen the window in which two threads make the first use
    # of one ordered pair's record, or of the two orders' records
    real_relation, real_pair = ops.sum_relation, CarrierPair.build
    monkeypatch.setattr(ops, "sum_relation", lambda a, b: time.sleep(0.002)
                        or real_relation(a, b))
    monkeypatch.setattr(CarrierPair, "build", staticmethod(lambda cq1, cq2: time.sleep(0.002)
                                                           or real_pair(cq1, cq2)))

    def work(k):
        for a, b in shared:
            start.wait(timeout=10)
            got.append(answers(a, b, swap=k % 2 == 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True)
                   for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == workers * rounds
    assert all(answers_ == want for answers_ in got)
