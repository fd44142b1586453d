"""What a descriptor keeps after first use: one eigendecomposition of the
graph form serves ``validate``, the Fitzpatrick carrier, a map's
enlargement slices and its skew witness, repeated
verdicts on one operator decompose nothing again, a linear sum check
solves all its points at once, and nothing kept refers
back to its descriptor, so every descriptor is freed by reference counting
alone.  Concurrent first uses take no lock and agree with a serial run."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from enlargekit.certificates import (
    non_enlargeable_single_valued,
    random_monotone_matrix,
    sum_fitz_exactness,
)
from enlargekit.enlargement import enl_member, enl_slice_linear
from enlargekit.fitzpatrick import CarrierPair, fitz_bruteforce, fitz_evaluator
from enlargekit.operators import Box, LinearMapOp, NormalConeOp, SumOp, TranslatedOp


def _counted_eigh(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _skew(rng, n):
    k = rng.normal(size=(n, n))
    return LinearMapOp(0.5 * (k - k.T))


def test_repeated_membership_tests_decompose_the_map_once(monkeypatch):
    rng = np.random.default_rng(1)
    a = random_monotone_matrix(40, rng)
    points = [(rng.normal(size=40), rng.normal(size=40)) for _ in range(10)]
    calls = _counted_eigh(monkeypatch)
    verdicts = [enl_member(a, x, xs, 0.5) for x, xs in points]
    assert all(v.method == "closed_form" for v in verdicts)
    assert len(calls) <= 1


def test_slices_and_the_skew_witness_read_the_kept_carrier(monkeypatch):
    rng = np.random.default_rng(5)
    a = random_monotone_matrix(40, rng)
    assert a.validate().maximal
    points = [rng.normal(size=40) for _ in range(10)]
    calls = _counted_eigh(monkeypatch)
    slices = [enl_slice_linear(a, x, 0.5) for x in points]
    cert = non_enlargeable_single_valued(a)
    assert calls == []
    assert all(s.carrier.dim == 40 for s in slices)
    assert not cert.verdict and cert.witness is not None


def test_a_linear_sum_check_decomposes_each_form_once(monkeypatch):
    rng = np.random.default_rng(2)
    a, b = random_monotone_matrix(40, rng), _skew(rng, 40)
    calls = _counted_eigh(monkeypatch)
    first = sum_fitz_exactness(a, b, n_points=10, seed=0)
    # the two summands' carriers, the sum relation's, and the pair's factors
    assert len(calls) <= 4
    calls.clear()
    again = sum_fitz_exactness(a, b, n_points=10, seed=0)
    # the summands keep theirs; the sum relation and the pair are per call
    assert len(calls) <= 2
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
    assert len(lstsqs) <= 1


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
        assert fitz_bruteforce(s, x, xs, count=200, polish=True).best_pair is not None
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
