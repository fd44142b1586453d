"""dom A is decided once per linear operator, by its kept domain record:
application, graph membership, the domain subspace, the matrix form and
the cone-sum Fitzpatrick function agree on every relation, the sets read
the record's complement of dom A instead of deriving it, and {0} x R^n,
whose chart block U is rounding dust when its graph basis is rotated, has
every x* in its value at 0."""

import json

import numpy as np
import pytest

from enlargekit import cli, linalg
from enlargekit import operators as ops
from enlargekit.certificates import (
    fitz_singleton_check,
    non_enlargeable,
    non_enlargeable_affine,
    random_monotone_matrix,
)
from enlargekit.fitzpatrick import fitz_evaluator
from enlargekit.operators import (
    Ball,
    Box,
    EmptySet,
    LinearRelationOp,
    NormalConeOp,
    Polytope,
    SumOp,
    apply,
    dom_subspace,
    graph_member,
    relation_as_map,
    validate,
)

# {0} x R^3 from an integer basis: orthonormalised, its U block is dust
_SPEC = {"space_dim": 3, "operator": {"kind": "linear_relation", "graph_basis": [
    [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 0, 1]]}}


def _zero_times_space(n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return LinearRelationOp.from_graph_columns(np.vstack([np.zeros((n, n)), q]), n)


def test_zero_times_space_holds_every_dual_vector_at_zero(tmp_path):
    path = tmp_path / "zero_times_r3.json"
    path.write_text(json.dumps(_SPEC))
    for op in [cli.load_spec(str(path))[0]] + [_zero_times_space(n, n) for n in (3, 5, 12)]:
        n = op.dim
        assert float(np.max(np.abs(op.u_block))) < 1e-12
        value = apply(op, np.zeros(n))
        assert value.directions.dim == n
        rng = np.random.default_rng(n)
        for _ in range(5):
            xs = rng.normal(size=n)
            assert graph_member(op, np.zeros(n), xs)
            assert not graph_member(op, 1e-3 * rng.normal(size=n), xs)
            assert non_enlargeable_affine(op, (np.zeros(n), xs)).verdict
        assert fitz_singleton_check(op).off_graph_ok


def _relation_with_domain(n, k, rng):
    """{(Q a, Q M a + Q_perp b)}: maximal, dom = ran Q of dimension k and
    A(0) = ran Q_perp."""
    qm, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mk = random_monotone_matrix(k, rng).matrix if k else np.zeros((0, 0))
    cols = np.block([[qm[:, :k], np.zeros((n, n - k))], [qm[:, :k] @ mk, qm[:, k:]]])
    return LinearRelationOp.from_graph_columns(cols, dim=n), qm[:, :k]


@pytest.mark.parametrize("n", [1, 3, 6])
def test_every_domain_question_gets_one_answer(n):
    rng = np.random.default_rng(10 + n)
    cases = [_relation_with_domain(n, k, rng) for k in range(n + 1)]
    cases.append((_zero_times_space(n, n), np.zeros((n, 0))))  # dust for n >= 3
    for op, q in cases:
        k = q.shape[1]
        dom = dom_subspace(op)
        assert dom.dim == k
        assert (relation_as_map(op) is not None) == (k == n)
        x = np.vstack([np.zeros(n), (q @ rng.normal(size=(k, 4))).T, rng.normal(size=(4, n))])
        inside = [True] * 5 + [k == n] * 4
        w, ok = op.values_at(x, np.random.SeedSequence(n))
        assert np.array_equal(op.domain.off(x), ~ok)
        # a box holding every row: F of A + N_C is +inf exactly off dom A
        fitz = fitz_evaluator(SumOp((op, NormalConeOp(Box(np.full(n, -9.0), np.full(n, 9.0))))))
        for row, wrow, okrow, want in zip(x, w, ok, inside):
            value = apply(op, row)
            assert (not isinstance(value, EmptySet)) == okrow == dom.contains_vector(row) == want
            assert op.domain.off(row) == (not want)
            assert np.isinf(fitz.evaluate(row, rng.normal(size=n))) == (not want)
            if want:
                assert value.directions.dim == n - k
                assert graph_member(op, row, wrow)


def test_no_set_derives_the_complement_of_dom_a(monkeypatch):
    rng = np.random.default_rng(4)
    op = _relation_with_domain(4, 2, rng)[0]
    sets = (Box(np.full(4, -1.0), np.full(4, 1.0)), Ball(np.zeros(4), 1.0),
            Polytope(tuple(np.vstack([np.eye(4), -np.eye(4)]))))
    dom = op.domain
    spans_dom = []
    for module in (ops, linalg):
        real = module.complement

        def recording(s, real=real):
            spans_dom.append(linalg.same_span(s, dom.dom))
            return real(s)
        monkeypatch.setattr(module, "complement", recording)
    q = dom.dom.basis
    hess = 0.5 * (q.T @ dom.on_dom @ q + (q.T @ dom.on_dom @ q).T)
    for c in sets:
        assert c.meets(dom) is not None and c.face(dom) is not None
        assert c.subspace_qp(dom, hess)(rng.normal(size=2))[0].shape == (2,)
        total = SumOp((op, NormalConeOp(c)))
        assert validate(total).maximal
        assert not non_enlargeable(total).verdict
    assert not any(spans_dom)


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_a_map_applies_its_matrix_bitwise(n):
    rng = np.random.default_rng(n)
    a = random_monotone_matrix(n, rng)
    x = rng.normal(size=(3, n))
    w, ok = a.values_at(x, np.random.SeedSequence(0))
    assert w.tobytes() == (x @ a.matrix.T).tobytes() and ok.all()
    assert apply(a, x[0]).point.tobytes() == (a.matrix @ x[0]).tobytes()
    assert dom_subspace(a).basis.tobytes() == np.eye(n).tobytes()
