"""Exact laws, dilation identities, coupling feasibility, and samplers."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from palmdpp import finite_dpp
from palmdpp.errors import SizeGuardError, ValidationError
from palmdpp.finite_dpp import (
    SubsetLaw,
    couple,
    coupling_feasible,
    dilate,
    p_u_finite,
    palm_eigenvector,
    palm_matrix,
    sample_coupled_many,
    sample_indicators,
    sample_removals,
    subset_law,
    validate,
    xi_law,
)

from conftest import (assert_sampler_matches_kernel, complement_determinant_law, masks_of,
                      palm_law_of_couple, random_dpp_matrix, random_unitary, reference_marginals,
                      table_items)

DIAG = np.diag([0.3, 0.7])
PROJ1 = np.array([[0.5, 0.5], [0.5, 0.5]])


def boundary_kernel(top: float) -> np.ndarray:
    """Q diag(top, 0.7, 0.4, 0.2) Q with the symmetric orthogonal Q = I - J/2."""
    q = np.eye(4) - 0.5
    return (q * [top, 0.7, 0.4, 0.2]) @ q


def real_kernel_with_extreme_eigenvalues(rng, n: int = 12) -> np.ndarray:
    """Real orthogonal eigenvectors; three eigenvalues exactly 1, three exactly 0."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.concatenate(([1.0] * 3, [0.0] * 3, rng.uniform(0.05, 0.95, n - 6)))
    k = (q * lam) @ q.T
    return 0.5 * (k + k.T)


def reference_coupled_draws(table, rng_seed: int, draws: int):
    """Sorted (pair, mass) items and one comprehension entry per draw."""
    rng = np.random.default_rng(rng_seed)
    pairs = sorted(table_items(table))
    weights = np.array([w for _, w in pairs])
    weights = weights / weights.sum()
    ks = rng.choice(len(pairs), p=weights, size=draws)
    s = np.array([pairs[k][0][0] for k in ks], dtype=np.int64)
    t = np.array([pairs[k][0][1] for k in ks], dtype=np.int64)
    return s, t


def reference_xi_law(table, n):
    """(p, density) of the removed point, one addition per pair in table order."""
    p, density = 0.0, np.zeros(n)
    for (s, t), w in table_items(table):
        diff = s ^ t
        if diff:
            p += w
            density[diff.bit_length() - 1] += w
    if p > 0.0:
        density /= p
    return p, density


def spectral_class_kernel(seed, ones: int, zeros: int, n: int = 12) -> np.ndarray:
    """Haar eigenvectors with `ones` eigenvalues 1, `zeros` eigenvalues 0, the
    rest in (0.05, 0.95); seed is an int or a Generator to draw from."""
    rng = np.random.default_rng(seed)
    lam = np.concatenate([np.ones(ones), np.zeros(zeros),
                          rng.uniform(0.05, 0.95, n - ones - zeros)])
    q = random_unitary(rng, n)
    k = (q * lam) @ q.conj().T
    return 0.5 * (k + k.conj().T)


def benchmark_pool(seed: int):
    """The twelve 12-site kernels and anchors that the finite-exact benchmark
    draws from `seed`, four of each of three spectral classes."""
    rng = np.random.default_rng([seed, 1])
    for ones, zeros in ((0, 0), (1, 0), (3, 9), (0, 0), (2, 0), (5, 7),
                        (0, 0), (3, 0), (7, 5), (0, 0), (4, 0), (9, 3)):
        k = spectral_class_kernel(rng, ones, zeros)
        u = int(rng.choice(np.flatnonzero(np.real(np.diag(k)) >= 0.05))) + 1
        yield k, u


@pytest.fixture
def flow_rounds(monkeypatch):
    """The largest capacity written for each maximum_flow call, in call order."""
    caps = []

    def spied(graph, source, sink, _solve=finite_dpp.maximum_flow):
        caps.append(int(graph.data.max()))
        return _solve(graph, source, sink)

    monkeypatch.setattr(finite_dpp, "maximum_flow", spied)
    return caps


def rank2_kernel(n: int = 3) -> np.ndarray:
    """Projection of rank two: 1/n plus an outer product of a unit vector
    orthogonal to the constants."""
    t = np.zeros(n)
    t[0], t[1] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    return 1.0 / n + np.outer(t, t.conj())


class TestValidate:
    def test_accepts_valid(self):
        assert validate(DIAG).n == 2
        assert validate(PROJ1).n == 2

    def test_rejects_eigenvalue_above_one(self):
        with pytest.raises(ValidationError) as err:
            validate(np.diag([1.5]))
        assert err.value.token == "spectrum"

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValidationError) as err:
            validate(np.zeros((0, 0)))
        assert err.value.token == "param-bound"

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError) as err:
            validate(np.array([[0.5, 0.4], [0.1, 0.5]]))
        assert err.value.token == "non-hermitian"

    def test_clamps_boundary_noise(self):
        dpp = validate(np.diag([1.0 + 5e-7, -5e-7]))
        lam = dpp.eig.eigenvalues
        assert lam.min() >= 0.0 and lam.max() <= 1.0

    def test_reports_the_clamped_eigenvalue(self):
        dpp = validate(boundary_kernel(1.0 + 5e-7))
        assert dpp.clamp_report.n_clamped == 1
        assert abs(dpp.clamp_report.max_excess - 5e-7) < 1e-12
        assert not validate(boundary_kernel(1.0)).clamp_report

    def test_slack_bounds_the_clamp(self):
        with pytest.raises(ValidationError) as err:
            validate(boundary_kernel(1.0 + 2e-6))
        assert err.value.token == "spectrum"
        assert validate(boundary_kernel(1.0 + 2e-6), slack=1e-3).clamp_report.n_clamped == 1

    def test_keeps_real_input_real(self):
        assert validate(DIAG).matrix.dtype == np.float64
        assert validate(DIAG.astype(complex)).matrix.dtype == np.complex128


class TestSubsetLaw:
    def test_independent_diagonal(self):
        law = subset_law(validate(DIAG))
        want = {0b00: 0.21, 0b01: 0.09, 0b10: 0.49, 0b11: 0.21}
        for mask, p in want.items():
            assert abs(law.prob(mask) - p) < 1e-12

    def test_rank_one_projection(self):
        law = subset_law(validate(PROJ1))
        assert abs(law.prob(0b01) - 0.5) < 1e-12
        assert abs(law.prob(0b10) - 0.5) < 1e-12
        assert law.prob(0b00) < 1e-12 and law.prob(0b11) < 1e-12

    def test_identity_is_full_set(self):
        law = subset_law(validate(np.eye(2)))
        assert abs(law.prob(0b11) - 1.0) < 1e-12

    def test_mass_and_marginalization(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            dpp = validate(random_dpp_matrix(rng, n))
            law = subset_law(dpp)
            assert abs(law.probs.sum() - 1.0) < 1e-9
            # P(A subset X) = det K_A recovered by summing the law over supersets
            for _ in range(3):
                a = int(rng.integers(1, 1 << n))
                total = sum(law.prob(s) for s in range(1 << n) if s & a == a)
                idx = [i for i in range(n) if a >> i & 1]
                assert abs(total - np.linalg.det(dpp.matrix[np.ix_(idx, idx)]).real) < 1e-8

    @pytest.mark.parametrize("name", ["diag", "rank-one", "boundary", "extreme"])
    def test_every_inclusion_is_a_principal_minor(self, name):
        # P(A subset X) = det K_A for every mask A, also where a conditioning
        # pivot sits at 0 or 1
        matrix = {"diag": DIAG, "rank-one": PROJ1, "boundary": boundary_kernel(1.0),
                  "extreme": real_kernel_with_extreme_eigenvalues(
                      np.random.default_rng(22), 8)}[name]
        dpp = validate(matrix)
        n = dpp.n
        # summing over supersets one bit at a time turns P(X = S) into P(S subset X)
        incl = subset_law(dpp).probs.copy()
        for i in range(n):
            view = incl.reshape(-1, 2, 1 << i)
            view[:, 0, :] += view[:, 1, :]
        for a in range(1, 1 << n):
            idx = [i for i in range(n) if a >> i & 1]
            assert abs(incl[a] - np.linalg.det(dpp.matrix[np.ix_(idx, idx)]).real) < 1e-9

    def test_palm_law_is_conditional_law(self):
        # the law of the Palm matrix is the conditional law given u in X
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            dpp = validate(random_dpp_matrix(rng, n))
            u = int(rng.integers(1, n + 1))
            kuu = float(dpp.matrix[u - 1, u - 1].real)
            if kuu < 1e-3:
                continue
            law = subset_law(dpp)
            palm_law = subset_law(palm_matrix(dpp, u))
            ubit = 1 << (u - 1)
            for t in range(1 << n):
                if t & ubit:
                    assert palm_law.prob(t) < 1e-12
                else:
                    want = law.prob(t | ubit) / kuu
                    assert abs(palm_law.prob(t) - want) < 1e-8

    def test_matches_complement_determinants(self):
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        matrices = [random_dpp_matrix(rng, 9), random_dpp_matrix(rng, 7),
                    random_dpp_matrix(rng, 9, force_one=True),
                    random_dpp_matrix(rng, 6, force_one=True),
                    real_kernel_with_extreme_eigenvalues(rng, 8),
                    real_kernel_with_extreme_eigenvalues(rng, 12),
                    q[:, :3] @ q[:, :3].T,  # rank-3 projection on 16 sites
                    np.diag([0.0, 1.0, 0.3, 1.0, 0.0, 0.6])]
        for matrix in matrices:
            dpp = validate(matrix)
            law = subset_law(dpp).probs
            assert np.max(np.abs(law - complement_determinant_law(dpp))) <= 1e-14

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            subset_law(validate(np.diag([0.5] * 17)))

    @pytest.mark.parametrize("matrix,phrase", [
        (np.diag([np.nan, 0.5]), "non-finite value"),
        (np.diag([1.5, 0.2]), "materially negative value"),
    ], ids=["nan", "eigenvalue-above-one"])
    def test_law_guards_a_matrix_validate_would_refuse(self, matrix, phrase):
        # a hand-built FiniteDpp skips validate; subset_law reads only its matrix
        dpp = finite_dpp.FiniteDpp(eig=None, n=2, clamp_report=finite_dpp.ClampReport(0, 0.0),
                                   _matrix=matrix)
        with pytest.raises(ValidationError, match=phrase) as exc:
            subset_law(dpp)
        assert exc.value.token == "spectrum"


class TestPalmMatrix:
    def test_projection_empties(self):
        assert np.max(np.abs(palm_matrix(validate(PROJ1), 1).matrix)) < 1e-12

    def test_diagonal_removes_only_anchor(self):
        out = palm_matrix(validate(DIAG), 1)
        assert np.allclose(out.matrix, np.diag([0.0, 0.7]), atol=1e-15)

    def test_rank_two_palm_has_one_point(self):
        palm = palm_matrix(validate(rank2_kernel()), 1)
        law = subset_law(palm)
        mass_by_count = np.zeros(4)
        for mask in range(8):
            mass_by_count[bin(mask).count("1")] += law.prob(mask)
        assert abs(mass_by_count[1] - 1.0) < 1e-10

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            palm_matrix(validate(np.diag([0.0, 0.5])), 1)


class TestPuFinite:
    def test_projection_is_one(self):
        assert abs(p_u_finite(validate(PROJ1), 1) - 1.0) < 1e-12
        assert abs(p_u_finite(validate(rank2_kernel()), 2) - 1.0) < 1e-12

    def test_diagonal_equals_intensity(self):
        assert abs(p_u_finite(validate(DIAG), 1) - 0.3) < 1e-15
        assert abs(p_u_finite(validate(DIAG), 2) - 0.7) < 1e-15

    def test_rank_two_displacement_mass(self):
        dpp = validate(rank2_kernel())
        row = np.abs(dpp.matrix[0, :]) ** 2
        density = row / row.sum()
        assert np.allclose(density, [5.0 / 6.0, 1.0 / 30.0, 2.0 / 15.0], atol=1e-12)
        assert abs(row.sum() / dpp.matrix[0, 0].real - 1.0) < 1e-12


class TestDilation:
    def test_half_site(self):
        q = dilate(validate(np.array([[0.5]])))
        assert np.allclose(q, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_projection_dilates_block_diagonally(self):
        q = dilate(validate(PROJ1))
        assert np.max(np.abs(q[:2, 2:])) < 1e-8  # off-diagonal blocks vanish

    def test_projection_property_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            q = dilate(validate(random_dpp_matrix(rng, n, force_one=bool(rng.integers(2)))))
            assert np.max(np.abs(q @ q - q)) <= 1e-8

    def test_anchor_vector_and_compression(self):
        dpp = validate(np.array([[0.5]]))
        pair = palm_eigenvector(dpp, 1)
        assert np.allclose(pair.anchor_vector, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)
        assert np.max(np.abs(pair.reduced)) < 1e-12

        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            dpp = validate(random_dpp_matrix(rng, n))
            sites = [u for u in range(1, n + 1) if dpp.matrix[u - 1, u - 1].real > 1e-6]
            if not sites:
                continue
            u = sites[0]
            pair = palm_eigenvector(dpp, u)
            assert abs(np.linalg.norm(pair.anchor_vector) - 1.0) <= 1e-10
            resid = pair.projection @ pair.anchor_vector - pair.anchor_vector
            assert np.linalg.norm(resid) <= 1e-8
            palm = palm_matrix(dpp, u).matrix
            assert np.max(np.abs(pair.reduced[:n, :n] - palm)) <= 1e-8

    def test_projection_kernel_vector_in_first_block(self):
        pair = palm_eigenvector(validate(PROJ1), 1)
        assert np.max(np.abs(pair.anchor_vector[2:])) < 1e-8


class TestCoupling:
    def test_identical_laws_give_identity_coupling(self):
        # no mass at the anchor site, so X and X^u share a law
        law = subset_law(validate(np.diag([0.0, 0.7])))
        flow, table = coupling_feasible(law, law, 1)
        assert flow >= 1.0 - 1e-8
        assert np.array_equal(table.joint[:, 0], table.joint[:, 1])

    def test_rank_one_projection(self):
        dpp = validate(PROJ1)
        flow, table = couple(dpp, 1)
        assert flow >= 1.0 - 1e-8
        assert sorted(table.joint.tolist()) == [[0b01, 0], [0b10, 0]]
        p, density = xi_law(table, dpp, 1)
        assert abs(p - 1.0) < 1e-8
        assert np.allclose(density, [0.5, 0.5], atol=1e-8)

    def test_support_and_marginals(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            dpp = validate(random_dpp_matrix(rng, n, force_one=bool(rng.integers(2))))
            sites = [u for u in range(1, n + 1) if dpp.matrix[u - 1, u - 1].real > 1e-6]
            if not sites:
                continue
            u = int(rng.choice(sites))
            law_x = subset_law(dpp)
            law_xu = subset_law(palm_matrix(dpp, u))
            flow, table = coupling_feasible(law_x, law_xu, u)
            assert flow >= 1.0 - 1e-8
            ubit = 1 << (u - 1)
            for s, t in table.joint.tolist():
                assert t & s == t and bin(s ^ t).count("1") <= 1 and not t & ubit
            rows, cols = reference_marginals(table)
            assert np.max(np.abs(rows - law_x.probs)) <= 1e-8
            assert np.max(np.abs(cols - law_xu.probs)) <= 1e-8

    def test_xi_law_matches_kernel_formulas(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            dpp = validate(random_dpp_matrix(rng, n))
            sites = [u for u in range(1, n + 1) if dpp.matrix[u - 1, u - 1].real > 1e-6]
            if not sites:
                continue
            u = int(rng.choice(sites))
            flow, table = couple(dpp, u)
            assert flow >= 1.0 - 1e-8
            p, density = xi_law(table, dpp, u)
            assert abs(p - p_u_finite(dpp, u)) <= 1e-8
            row = np.abs(dpp.matrix[u - 1, :]) ** 2
            assert np.max(np.abs(density - row / row.sum())) <= 1e-8

    def test_diagonal_example(self):
        dpp = validate(DIAG)
        flow, table = couple(dpp, 1)
        p, density = xi_law(table, dpp, 1)
        assert abs(p - 0.3) < 1e-8
        assert np.allclose(density, [1.0, 0.0], atol=1e-8)

    @staticmethod
    def assert_exact_coupling(dpp, formula_tol):
        """Couple at the site of largest K_uu: support rule, both marginals
        within 1e-12, and p_u, f_u within formula_tol of the kernel formulas."""
        u = int(np.argmax(np.real(np.diagonal(dpp.matrix)))) + 1
        law_x = subset_law(dpp)
        law_xu = subset_law(palm_matrix(dpp, u))
        flow, table = coupling_feasible(law_x, law_xu, u)
        assert flow >= 1.0 - 1e-8
        ubit = 1 << (u - 1)
        s, t = table.joint.T
        assert np.all(t & s == t) and not np.any(t & ubit)
        assert max(bin(int(d)).count("1") for d in s ^ t) <= 1
        rows, cols = reference_marginals(table)
        assert np.max(np.abs(rows - law_x.probs)) <= 1e-12
        assert np.max(np.abs(cols - law_xu.probs)) <= 1e-12
        p, density = xi_law(table, dpp, u)
        row = np.abs(dpp.matrix[u - 1, :]) ** 2
        assert abs(p - row.sum() / dpp.matrix[u - 1, u - 1].real) <= formula_tol
        assert np.max(np.abs(density - row / row.sum())) <= formula_tol

    @pytest.mark.parametrize("ones,zeros", [(0, 0), (2, 0), (5, 7)],
                             ids=["below-one", "some-one", "projection"])
    def test_twelve_sites(self, ones, zeros):
        self.assert_exact_coupling(validate(spectral_class_kernel(31 + ones, ones, zeros)), 1e-12)

    @pytest.mark.parametrize("ones,zeros", [(0, 0), (2, 0), (7, 9)],
                             ids=["below-one", "some-one", "projection"])
    def test_sixteen_sites(self, ones, zeros, flow_rounds):
        # the largest space the coupling guard admits, in two max-flow rounds
        dpp = validate(spectral_class_kernel(61 + ones, ones, zeros, n=16))
        self.assert_exact_coupling(dpp, 1e-14)
        assert 1 <= len(flow_rounds) <= 2 and max(flow_rounds) <= 2 ** 30 - 1

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_pool_max_flow_rounds(self, seed, flow_rounds):
        # every capacity leaves int32 headroom for capacity plus reverse flow.  Two
        # rounds reach the float noise, except where the second leaves a residual
        # just above it: seed 3's eighth kernel routes its last 1.6e-15 in a third
        rounds = []
        for matrix, u in benchmark_pool(seed):
            before = len(flow_rounds)
            couple(validate(matrix), u)
            rounds.append(len(flow_rounds) - before)
        assert max(flow_rounds) <= 2 ** 30 - 1
        assert max(rounds) <= 3 and sum(rounds) <= 2 * len(rounds) + 1

    def test_vanishing_anchor_refused(self):
        with pytest.raises(ValidationError) as exc:
            couple(validate(np.diag([0.0, 0.5])), 1)
        assert exc.value.token == "anchor"

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_palm_law_is_a_slice_of_the_law_of_x(self, seed):
        # P(X^u = T) = P(X = T + {u}) / K(u, u) against the law of the Palm matrix,
        # on the pool's first kernel of each class: below-one, some-one, projection
        for matrix, u in itertools.islice(benchmark_pool(seed), 3):
            dpp = validate(matrix)
            want = subset_law(palm_matrix(dpp, u)).probs
            assert np.max(np.abs(palm_law_of_couple(dpp, u) - want)) <= 1e-15

    def test_infeasible_returns_flow_and_no_table(self):
        # X is always empty, X^u holds site 2 half the time: only half the mass can move
        law_x = SubsetLaw(probs=np.array([1.0, 0.0, 0.0, 0.0]), n=2)
        law_xu = SubsetLaw(probs=np.array([0.5, 0.0, 0.5, 0.0]), n=2)
        flow, table = coupling_feasible(law_x, law_xu, 1)
        assert table is None and abs(flow - 0.5) <= 1e-12

    def test_solver_undoes_the_greedy_start(self):
        # X is {1} or {1, 2}, X^u (anchor 3) is {1} or empty, each with mass 1/2.
        # The greedy start sends {1} -> {1} and leaves {1, 2} no outlet, so the
        # solver must push that flow back: {1, 2} -> {1} and {1} -> empty
        law_x = SubsetLaw(probs=np.array([0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0]), n=3)
        law_xu = SubsetLaw(probs=np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), n=3)
        flow, table = coupling_feasible(law_x, law_xu, 3)
        assert flow == 1.0
        assert sorted(table_items(table)) == [((0b001, 0b000), 0.5), ((0b011, 0b001), 0.5)]

    @pytest.mark.parametrize("deficit,feasible", [(1e-6, False), (3e-9, True)])
    def test_flow_deficit_threshold(self, deficit, feasible):
        law_x = SubsetLaw(probs=np.array([1.0, 0.0, 0.0, 0.0]), n=2)
        law_xu = SubsetLaw(probs=np.array([1.0 - deficit, 0.0, deficit, 0.0]), n=2)
        flow, table = coupling_feasible(law_x, law_xu, 1)
        assert abs(flow - (1.0 - deficit)) <= 1e-12
        assert (table is not None) == feasible
        if feasible:
            assert table.joint.tolist() == [[0, 0]]

    @pytest.mark.parametrize("ones,zeros", [(0, 0), (2, 0), (5, 7)],
                             ids=["below-one", "some-one", "projection"])
    def test_xi_law_matches_per_pair_loop(self, ones, zeros):
        dpp = validate(spectral_class_kernel(35 + ones, ones, zeros))
        u = int(np.argmax(np.real(np.diagonal(dpp.matrix)))) + 1
        _, table = couple(dpp, u)
        p, density = xi_law(table, dpp, u)
        p_ref, density_ref = reference_xi_law(table, dpp.n)
        assert p == p_ref and np.array_equal(density, density_ref)

    def test_xi_law_without_removals(self):
        dpp = validate(np.diag([0.0, 0.7]))
        law = subset_law(dpp)
        _, table = coupling_feasible(law, law, 1)
        p, density = xi_law(table, dpp, 1)
        assert p == 0.0 and density.dtype == float and not density.any()

    def test_palm_mass_at_anchor_rejected(self):
        law = subset_law(validate(DIAG))
        with pytest.raises(ValidationError):
            coupling_feasible(law, law, 1)  # law has mass on subsets with site 1

    def test_size_guard(self, monkeypatch):
        # subset_law's guard is its first statement: the first call raises, on
        # the kernel itself, before any law or the Palm matrix is computed, and
        # before the site is checked
        big = validate(np.diag([0.5] * 17))
        seen = []

        def spied(dpp, _law=finite_dpp.subset_law):
            seen.append(dpp)
            return _law(dpp)

        def no_palm(*args):
            raise AssertionError("the Palm matrix was computed")

        monkeypatch.setattr(finite_dpp, "subset_law", spied)
        monkeypatch.setattr(finite_dpp, "palm_matrix", no_palm)
        for site in (17, 0, 18, 1.5):
            seen.clear()
            with pytest.raises(SizeGuardError, match="n <= 16"):
                couple(big, site)
            assert len(seen) == 1 and seen[0] is big

    def test_routed_pairs_overfill_a_sink(self):
        # X always holds the anchor, site 1; X^u is empty only half the time,
        # so S = {1} can route only half its mass to S less the anchor
        law_x = SubsetLaw(probs=np.array([0.0, 1.0, 0.0, 0.0]), n=2)
        law_xu = SubsetLaw(probs=np.array([0.5, 0.0, 0.5, 0.0]), n=2)
        flow, table = coupling_feasible(law_x, law_xu, 1)
        assert table is None and abs(flow - 0.5) <= 1e-12

    def test_xi_law_refuses_another_site(self):
        dpp = validate(DIAG)
        _, table = couple(dpp, 1)
        with pytest.raises(ValidationError) as exc:
            xi_law(table, dpp, 2)
        assert exc.value.token == "param-bound"

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_benchmark_pool_matches_kernel_formulas(self, seed):
        for matrix, u in benchmark_pool(seed):
            dpp = validate(matrix)
            _, table = couple(dpp, u)
            p, density = xi_law(table, dpp, u)
            row = np.abs(dpp.matrix[u - 1, :]) ** 2
            assert abs(p - row.sum() / dpp.matrix[u - 1, u - 1].real) <= 1e-14
            assert np.max(np.abs(density - row / row.sum())) <= 1e-14


class TestSamplers:
    def test_identity_kernel_always_full(self):
        dpp = validate(np.eye(3))
        assert np.all(sample_indicators(dpp, 7, 50))

    def test_zero_kernel_always_empty(self):
        dpp = validate(np.zeros((3, 3)))
        assert not np.any(sample_indicators(dpp, 7, 50))

    def test_single_draw_reproducible(self):
        dpp = validate(DIAG)
        one = sample_indicators(dpp, 123, 1)
        assert one.shape == (1, 2) and np.array_equal(one, sample_indicators(dpp, 123, 1))

    def test_no_draws_gives_empty_array(self):
        for n in (3, 70):
            bits = sample_indicators(validate(0.5 * np.eye(n)), 1, 0)
            assert bits.shape == (0, n) and bits.dtype == bool

    def test_pick_rounded_up_to_the_total_takes_the_last_site_with_mass(self):
        # the coins are 0, so both eigenvectors of eigenvalue 0.5 are kept, and
        # each pick's uniform is 1.0, as if u * total rounded up to the total:
        # no cdf entry exceeds it, and the pick falls back to the last site
        # whose residual mass is positive, never to site 3, which has none
        class RoundedUp:
            coins_drawn = False

            def random(self, size):
                coins, self.coins_drawn = not self.coins_drawn, True
                return np.zeros(size) if coins else np.ones(size)

        eig = validate(np.diag([0.5, 0.5, 0.0])).eig
        bits = finite_dpp._spectral_block(eig.eigenvalues, eig.eigenvectors, 4, RoundedUp())
        assert bits.tolist() == [[True, True, False]] * 4

    def test_subset_law_of_projection_with_three_points(self):
        # the third point is the first that depends on the Gram-Schmidt step
        rng = np.random.default_rng(41)
        dpp = validate(real_kernel_with_extreme_eigenvalues(rng, 6))
        law = subset_law(dpp).probs
        draws = 20000
        freq = np.bincount(masks_of(sample_indicators(dpp, 42, draws)), minlength=law.size) / draws
        sigma = np.sqrt(np.maximum(law * (1.0 - law), 1e-12) / draws)
        assert np.all(np.abs(freq - law) <= 4.5 * sigma + 1e-12)

    def test_real_kernel_with_eigenvalues_zero_and_one(self):
        rng = np.random.default_rng(21)
        dpp = validate(real_kernel_with_extreme_eigenvalues(rng))
        bits = sample_indicators(dpp, 22, 4000)
        counts = bits.sum(axis=1)
        assert counts.min() >= 3 and counts.max() <= 9
        assert_sampler_matches_kernel(dpp, bits)

    def test_empirical_law_binomial_bounds(self):
        draws = 20000
        for matrix, seed in ((DIAG, 1), (PROJ1, 2), (rank2_kernel(), 3)):
            dpp = validate(matrix)
            law = subset_law(dpp)
            masks = masks_of(sample_indicators(dpp, seed, draws))
            counts = np.bincount(masks, minlength=1 << dpp.n)
            for mask in range(1 << dpp.n):
                p = law.prob(mask)
                sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / draws)
                assert abs(counts[mask] / draws - p) <= 3.0 * sigma + 1e-12, \
                    f"subset {mask:b} off by more than 3 sigma"

    def test_coupled_sampler_support_and_marginals(self):
        dpp = validate(rank2_kernel())
        law_x = subset_law(dpp)
        law_xu = subset_law(palm_matrix(dpp, 1))
        _, table = couple(dpp, 1)
        draws = 20000
        s, t = sample_coupled_many(table, 5, draws)
        assert np.all(t & s == t)
        assert np.all(np.array([bin(int(d)).count("1") for d in s ^ t]) <= 1)
        for mask in range(1 << dpp.n):
            for arr, law in ((s, law_x), (t, law_xu)):
                p = law.prob(mask)
                sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / draws)
                assert abs(np.mean(arr == mask) - p) <= 3.0 * sigma + 1e-12

    def test_coupled_draws_match_reference(self):
        for matrix, u in ((rank2_kernel(), 1), (spectral_class_kernel(34, 1, 0, n=8), 2)):
            dpp = validate(matrix)
            _, table = couple(dpp, u)
            s, t = sample_coupled_many(table, 6, 5000)
            s_ref, t_ref = reference_coupled_draws(table, 6, 5000)
            assert s.dtype == t.dtype == np.int64
            assert np.array_equal(s, s_ref) and np.array_equal(t, t_ref)

    def test_projection_coupling_draws(self):
        dpp = validate(PROJ1)
        _, table = couple(dpp, 1)
        s, t = sample_coupled_many(table, 8, 500)
        assert np.all(t == 0)
        assert np.all(np.array([bin(int(m)).count("1") for m in s]) == 1)

    @pytest.mark.parametrize("draws", [1, 5000])
    def test_removal_tally_matches_the_coupled_draws(self, draws):
        dpp = validate(spectral_class_kernel(12, 1, 0, n=8))
        _, table = couple(dpp, 3)
        s, t = sample_coupled_many(table, 9, draws)
        diff = s ^ t
        want = [np.count_nonzero(diff == 1 << v) for v in range(dpp.n)]
        share, counts = sample_removals(table, 9, draws)
        assert share == np.count_nonzero(diff) / draws
        assert counts.shape == (dpp.n,) and counts.tolist() == want

    def test_single_coupled_draw(self):
        dpp = validate(DIAG)
        _, table = couple(dpp, 1)
        (s,), (t,) = sample_coupled_many(table, 55, 1)
        assert t & s == t and bin(int(s ^ t)).count("1") <= 1
        (s2,), (t2,) = sample_coupled_many(table, 55, 1)
        assert (s2, t2) == (s, t)
