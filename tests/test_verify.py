import csv
from pathlib import Path

import numpy as np
import pytest

from wlmg import verify
from wlmg.discretize import BoundaryCondition, GridSpec, assemble
from wlmg.verify import (approximation_constant, smoothing_constant,
                         spectral_equivalence, tgm_contraction, theory_report)

from oracles import coefficient_samples, dense_operator

D = BoundaryCondition.DIRICHLET


def spd(n, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_smoothing_constant_exact_solver():
    A = spd(8, 1)
    alpha = smoothing_constant(A, np.zeros((8, 8)))
    lam_max = np.linalg.eigvalsh(A).max()
    assert alpha == pytest.approx(1.0 / lam_max, rel=1e-10)


def test_smoothing_constant_identity_smoother():
    A = spd(6, 2)
    assert smoothing_constant(A, np.eye(6)) == pytest.approx(0.0, abs=1e-12)


def test_smoothing_constant_richardson_positive():
    grid = GridSpec((15,), D)
    A = assemble(grid, "a1").toarray()
    omega = 0.25
    V = np.eye(15) - omega * A
    assert smoothing_constant(A, V) > 0


def test_approximation_constant_trivia():
    A = spd(6, 3)
    assert approximation_constant(A, np.eye(6)) == pytest.approx(0.0, abs=1e-12)
    # first k identity columns against A = I: complement ratio is 1
    p = np.eye(6)[:, :3]
    assert approximation_constant(np.eye(6), p) == pytest.approx(1.0, rel=1e-12)


def test_approximation_constant_bounded_across_sizes():
    from wlmg.mgm import SolverConfig, build_hierarchy
    from wlmg.discretize import split
    betas = []
    for n in (7, 15, 31):
        grid = GridSpec((n,), D)
        prob = split(assemble(grid, "a1"), grid, "a1")
        H = build_hierarchy(prob, SolverConfig(method="tgm"))
        A = dense_operator(H.levels[0])
        p = H.levels[0].projector.to_sparse().toarray()
        betas.append(approximation_constant(A, p))
    assert max(betas) / min(betas) <= 2.0


def test_spectral_equivalence_trivia():
    A = spd(7, 4)
    t1, t2 = spectral_equivalence(A, A)
    assert t1 == pytest.approx(1.0) and t2 == pytest.approx(1.0)


@pytest.mark.parametrize("preset", ["a1", "a2", "a3", "a2k:1"])
def test_spectral_equivalence_weighted_range_1d(preset):
    grid = GridSpec((31,), D)
    A = assemble(grid, preset).toarray()
    B = assemble(grid, "a1").toarray()
    t1, t2 = spectral_equivalence(A, B)
    samples = coefficient_samples(grid, preset)
    assert t1 >= samples.min() - 1e-10
    assert t2 <= samples.max() + 1e-10


def test_spectral_equivalence_shift_containment():
    # a3 = a2 + 1 in one dimension: the pencil interval reflects the shift
    grid = GridSpec((15,), D)
    A3 = assemble(grid, "a3").toarray()
    B = assemble(grid, "a1").toarray()
    t1, t2 = spectral_equivalence(A3, B)
    s2 = coefficient_samples(grid, "a2")
    assert t1 >= s2.min() + 1.0 - 1e-10
    assert t2 <= s2.max() + 1.0 + 1e-10


def test_tgm_contraction_trivia():
    A = spd(5, 5)
    assert tgm_contraction(A, np.zeros((5, 5))) == pytest.approx(0.0)
    assert tgm_contraction(A, np.eye(5)) == pytest.approx(1.0)


def test_non_spd_rejected():
    bad = -np.eye(4)
    with pytest.raises(ValueError):
        spectral_equivalence(bad, np.eye(4))
    with pytest.raises(ValueError):
        smoothing_constant(bad, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        spectral_equivalence(np.eye(4), bad)
    with pytest.raises(ValueError):
        approximation_constant(bad, np.eye(4)[:, :2])
    with pytest.raises(ValueError):
        tgm_contraction(bad, np.eye(4))


@pytest.mark.parametrize("A, message", [
    (np.ones((4, 3)), "^A must be square$"),
    (np.zeros((1025, 1025)), "^A exceeds the dense oracle cap 1024$"),
    (np.triu(np.ones((4, 4))), "^A must be symmetric$"),
    (np.ones((4, 4)), "^A must be positive definite$"),
], ids=["non-square", "over-cap", "non-symmetric", "singular"])
def test_each_constant_refuses_a_matrix_it_cannot_certify(A, message):
    """Each of the four constants refuses its ``A`` before any other work;
    ``spectral_equivalence`` refuses its ``B`` alike."""
    n = A.shape[1]
    for call in (lambda: smoothing_constant(A, np.eye(n)),
                 lambda: approximation_constant(A, np.eye(n)[:, :1]),
                 lambda: spectral_equivalence(A, np.eye(n)),
                 lambda: tgm_contraction(A, np.eye(n))):
        with pytest.raises(ValueError, match=message):
            call()
    if A.shape[0] == n <= 1024:
        with pytest.raises(ValueError, match=message.replace("A", "B", 1)):
            spectral_equivalence(np.eye(n), A)


def test_approximation_constant_refuses_a_rank_deficient_p():
    p = np.ones((6, 2))
    with pytest.raises(ValueError, match="^p must have full column rank$"):
        approximation_constant(spd(6, 6), p)


def test_dense_iteration_matrix_is_capped():
    """Above N = 4096 the extraction refuses before it allocates."""
    from wlmg.discretize import split
    from wlmg.mgm import SolverConfig, build_hierarchy
    grid = GridSpec((65, 65), D)
    H = build_hierarchy(split(assemble(grid, "a1"), grid, "a1"), SolverConfig(method="tgm"))
    assert H.levels[0].n == 4225
    with pytest.raises(ValueError, match=r"^dense extraction capped at N <= 4096$"):
        verify.dense_iteration_matrix(H)


def test_report_decomposes_only_its_four_pencils(monkeypatch):
    """``theory_report`` certifies ``A`` and ``B`` by Cholesky factors, so
    its only eigendecompositions are those of its four pencils, each with
    a second matrix: none is of ``A`` or ``B`` alone."""
    calls = []

    def recording(module, name):
        f = getattr(module, name)

        def wrapped(*args, **kwargs):
            pencil = module is verify.la and (len(args) > 1 or kwargs.get("b") is not None)
            calls.append((name, pencil))
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for module in (verify.la, verify.np.linalg):
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            recording(module, name)
    theory_report("periodic", "a2", 16)
    assert calls == [("eigvalsh", True)] * 4


def test_theorem_chain_dirichlet():
    for coeff in ("a1", "a2", "a3"):
        for n in (7, 15, 31):
            rep = theory_report("dirichlet", coeff, n)
            assert rep.alpha_post > 0, (coeff, n)
            assert rep.beta >= rep.alpha_post
            assert rep.bound < 1.0
            assert rep.measured_contraction <= rep.bound + 1e-8, (coeff, n)


def test_report_values_sane():
    rep = theory_report("dirichlet", "a2", 31)
    assert rep.chain_holds
    assert rep.theta1 >= 1.0 - 1e-10       # e^x >= 1 on the sample set
    assert rep.theta2 <= np.e + 1e-10


# `wlmg verify --bc <bc> --sizes <3 sizes>` as recorded under tests/data,
# the CSV of the three default coefficients, each value to 13 digits
VERIFY_DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("bc", ["dirichlet", "periodic", "reflective"])
def test_report_values_match_recorded(bc):
    """Every value of every row within 1e-12 relative of the recorded one,
    whose printed digits round by at most 5e-13 relative."""
    with open(VERIFY_DATA / f"verify_{bc}.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 9
    for row in rows:
        rep = theory_report(bc, row["coeff"], int(row["n"]))
        assert (rep.bc, rep.coeff) == (row["bc"], row["coeff"]) and rep.chain_holds
        for name in ("alpha_post", "beta", "bound", "measured_contraction",
                     "theta1", "theta2"):
            want = float(row[name])
            assert abs(getattr(rep, name) - want) <= 1e-12 * abs(want), (row, name)
