"""The compiled model and constraint layouts against loop-form references.

The references below are written out cell by cell from the documented
layout and import nothing from the library's packing or constraint code,
so they check the index arrays and the flat constraint arrays
independently.  Both sides perform the same floating-point operations in
the same order, so results must agree exactly.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufcfa.constraints import (
    BalanceConstraint,
    ConstraintMode,
    ConstraintSet,
    build_fixed_weight_constraints,
    build_one_step_constraints,
    choose_pivots,
    constraint_jacobian,
    evaluate_lambda,
    swap_members,
)
from bufcfa.errors import StructureError
from bufcfa.model import FactorModel, StackedLayout, pack, unpack
from bufcfa.simulation import block_pattern


def ref_cells(model):
    """Free loading cells, row-major, and free correlation pairs, row > column."""
    p, q = model.p, model.q
    cells = [(i, j) for i in range(p) for j in range(q) if model.pattern.free[i, j]]
    pairs = [(i, j) for i in range(q) for j in range(i) if np.isnan(model.phi_fixed[i, j])]
    return cells, pairs


def ref_pack(model, lam, phi, psi):
    cells, pairs = ref_cells(model)
    return np.array([lam[c] for c in cells] + [phi[c] for c in pairs] + list(psi))


def ref_unpack(model, theta):
    cells, pairs = ref_cells(model)
    lam = np.zeros((model.p, model.q))
    phi = np.array(model.phi_fixed)
    for k, (i, j) in enumerate(cells):
        lam[i, j] = theta[k]
    for k, (i, j) in enumerate(pairs):
        phi[i, j] = phi[j, i] = theta[len(cells) + k]
    return lam, phi, np.array(theta[len(cells) + len(pairs):])


def ref_member_weight(cset, c, pos, lam):
    if cset.mode is ConstraintMode.FIXED_WEIGHTS:
        return c.weights[pos]
    s = lam[c.members[pos], c.block]
    return 1.0 + s * s


def ref_residuals(cset, lam):
    out = []
    for c in cset.constraints:
        total = 0.0
        for pos, k in enumerate(c.members):
            total += ref_member_weight(cset, c, pos, lam) * lam[k, c.unwanted]
        out.append(total)
    return np.array(out)


def ref_jacobian(cset, model, theta):
    cells, _ = ref_cells(model)
    index = {cell: k for k, cell in enumerate(cells)}
    lam = ref_unpack(model, theta)[0]
    jac = np.zeros((len(cset), model.n_parameters))
    for r, c in enumerate(cset.constraints):
        for pos, k in enumerate(c.members):
            if (k, c.unwanted) in index:
                jac[r, index[(k, c.unwanted)]] += ref_member_weight(cset, c, pos, lam)
            if cset.mode is ConstraintMode.SELF_WEIGHTED and (k, c.block) in index:
                jac[r, index[(k, c.block)]] += 2.0 * lam[k, c.block] * lam[k, c.unwanted]
    return jac


def ref_pivot_cells(cset, model):
    """Per constraint the member cell of largest |weight| (first on ties)
    among free, nonzero-weight cells that no other constraint uses; None
    when a constraint has no such cell."""
    cells, _ = ref_cells(model)
    self_weighted = cset.mode is ConstraintMode.SELF_WEIGHTED
    uses = Counter((k, c.unwanted) for c in cset.constraints for k in c.members)
    if self_weighted:
        uses.update((k, c.block) for c in cset.constraints for k in c.members)
    chosen = []
    for c in cset.constraints:
        weights = (1.0,) * len(c.members) if self_weighted else c.weights
        best = None
        for k, w in zip(c.members, weights):
            cell = (k, c.unwanted)
            eligible = w != 0.0 and uses[cell] == 1 and cell in cells
            if eligible and (best is None or abs(w) > best[0]):
                best = (abs(w), cell)
        if best is None:
            return None
        chosen.append(best[1])
    return chosen


@st.composite
def compiled_cases(draw):
    """A random block pattern with some zero cells freed, free or fixed
    phi, a fixed-weight or self-weighted set (built, or with random
    memberships) with swapped members, and a random parameter vector."""
    q, per = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    pattern = block_pattern(q, per, "zero")
    zero_cells = [tuple(c) for c in np.argwhere(~pattern.free).tolist()]
    pattern = pattern.with_cells_freed(draw(st.lists(st.sampled_from(zero_cells), unique=True)))
    phi_spec = draw(st.sampled_from(["free", 0.3]))
    if phi_spec == "free":
        model = FactorModel.free_phi(pattern)
    else:
        model = FactorModel.fixed_phi(pattern, phi_spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fixed = draw(st.sampled_from(["fixed", "self"])) == "fixed"
    # Few distinct weights, so pivot choice meets ties and zero weights.
    choices = [0.0, 0.5, -0.5, 0.7]
    if draw(st.booleans()):
        # Random memberships share cells between constraints, which
        # swapped builder sets never do.
        pairs = [(b, j) for b in range(q) for j in range(q) if b != j]
        sizes = rng.integers(1, per + 2, size=len(pairs))
        members = [tuple(rng.choice(model.p, size=k, replace=False).tolist()) for k in sizes]
        cset = ConstraintSet(
            tuple(
                BalanceConstraint(b, j, m, tuple(rng.choice(choices, len(m))) if fixed else None)
                for (b, j), m in zip(pairs, members)
            ),
        )
    elif fixed:
        weights = rng.choice(choices, size=model.p)
        weights[[block[0] for block in pattern.blocks]] = 0.7
        cset = build_fixed_weight_constraints(pattern, weights)
    else:
        cset = build_one_step_constraints(pattern)
    variables = st.integers(0, model.p - 1)
    cset = swap_members(cset, draw(st.lists(st.tuples(variables, variables), max_size=3)))
    return model, cset, rng.standard_normal(model.n_parameters)


class TestAgainstLoopReferences:
    @given(compiled_cases())
    @settings(max_examples=80, deadline=None)
    def test_pack_and_unpack(self, case):
        model, _, theta = case
        lam, phi, psi = unpack(model, theta)
        for got, want in zip((lam, phi, psi), ref_unpack(model, theta)):
            assert np.array_equal(got, want)
        assert np.array_equal(pack(model, lam, phi, psi), ref_pack(model, lam, phi, psi))

    @given(compiled_cases())
    @settings(max_examples=80, deadline=None)
    def test_residuals_and_jacobian(self, case):
        model, cset, theta = case
        lam = ref_unpack(model, theta)[0]
        assert np.array_equal(evaluate_lambda(cset, lam), ref_residuals(cset, lam))
        jac = constraint_jacobian(cset, theta, model)
        assert np.array_equal(jac, ref_jacobian(cset, model, theta))

    @given(compiled_cases())
    @settings(max_examples=300, deadline=None)
    def test_pivots(self, case):
        model, cset, _ = case
        expected = ref_pivot_cells(cset, model)
        if expected is None:
            with pytest.raises(StructureError, match="no free member loading"):
                choose_pivots(cset, model)
            return
        rows, cols = choose_pivots(cset, model).cells
        assert list(zip(rows.tolist(), cols.tolist())) == expected


@pytest.mark.parametrize("members", [[(), (0, 1)], [(), ()]])
def test_constraint_without_members_has_no_pivot(members):
    model = FactorModel.free_phi(block_pattern(2, 2, "free"))
    cset = ConstraintSet(
        (BalanceConstraint(0, 1, members[0]), BalanceConstraint(1, 0, members[1])),
    )
    with pytest.raises(StructureError, match="constraint 0 .* no free member"):
        choose_pivots(cset, model)


@pytest.mark.parametrize("phi_spec", ["free", "fixed"])
def test_stacked_layout_rows_are_each_models_layout(phi_spec):
    # A search's single-cell refits in one stack; fixed rows alternate
    # between two correlation values, so each row keeps its own phi.
    pattern = block_pattern(3, 6, "zero")
    zero_cells = [tuple(c) for c in np.argwhere(~pattern.free).tolist()]
    models = [
        FactorModel.free_phi(pattern.with_cells_freed([cell]))
        if phi_spec == "free"
        else FactorModel.fixed_phi(pattern.with_cells_freed([cell]), (0.3, 0.5)[k % 2])
        for k, cell in enumerate(zero_cells)
    ]
    layout = StackedLayout.of(models)
    theta = np.random.default_rng(4).standard_normal((len(models), models[0].n_parameters))
    lam, phi, psi = layout.unpack(theta)
    for r, model in enumerate(models):
        cells, pairs = ref_cells(model)
        assert list(zip(layout.loading_rows[r].tolist(), layout.loading_cols[r].tolist())) == cells
        assert list(zip(layout.phi_rows[r].tolist(), layout.phi_cols[r].tolist())) == pairs
        for got, want in zip((lam[r], phi[r], psi[r]), ref_unpack(model, theta[r])):
            assert np.array_equal(got, want)
    assert np.array_equal(layout.pack(lam, phi, psi), theta)


def test_compiled_arrays_are_read_only(free_pattern):
    model = FactorModel.fixed_phi(free_pattern, 0.3)
    cset = build_fixed_weight_constraints(free_pattern, np.full(18, 0.6))
    arrays = [*model.layout, model.loading_index, model.pattern.salient, model.pattern.free]
    arrays += list(cset.flat)
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
