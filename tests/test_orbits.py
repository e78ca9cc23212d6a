"""Weight orbits: a graded summand's index symmetries permute its weight
spaces, one space per orbit is written and counted once per weight of the
orbit, and the rank must equal that of the whole flattening and that of
the brute-force one."""

import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from oracles import dense_rows, rank_gauss_fractions, rank_gauss_mod_p, stored, wedge_flattening

import brlab
from brlab.bounds import bound_classical, flattening_rank
from brlab.exterior import WedgeRangeWarning, classical_tensor, koszul_flattening, \
    koszul_weight_spaces
from brlab.rank_engine import ExactQ, MultiPrime, SparseMatrix, rank_certified
from brlab.scalars import FieldTag, certification_primes
from brlab.tensor import Tensor3, direct_summands, index_symmetries, matmul_tensor, \
    mirror_grading

Q = FieldTag.rationals()
F7 = FieldTag.prime_field(7)
FIELDS = [(Q, [ExactQ(), MultiPrime((certification_primes()[0],))]), (F7, [MultiPrime((7,))])]


def automorphic(t, g) -> bool:
    """t(gx) = eps * t(x) on every cell, checked cell by cell, with g's
    maps extended by the identity to unused indices."""
    pa, pb, pc, eps = g
    a, b, c = t.dims
    cells = stored(t)
    for i in range(a):
        for j in range(b):
            for k in range(c):
                v = cells.get((pa.get(i, i), pb.get(j, j), pc.get(k, k)), 0)
                if v != t.field.coerce(eps * cells.get((i, j, k), 0)):
                    return False
    return True


def oracle_rank(t, p, strategy):
    """Rank of the brute-force flattening: by dense elimination when it is
    small, else by the rank engine on the oracle's cells."""
    cells, rows, cols = wedge_flattening(t, p)
    if len(rows) * len(cols) <= 20000:
        dense = dense_rows(SparseMatrix(len(rows), len(cols), cells, t.field))
        return rank_gauss_fractions(dense) if t.field.is_q else rank_gauss_mod_p(dense, t.field.p)
    return rank_certified(SparseMatrix(len(rows), len(cols), cells, t.field), strategy).rank


def check_every_p(t, strategies):
    for p in range(t.dims[0]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WedgeRangeWarning)
            whole = koszul_flattening(t, p).matrix
            for strategy in strategies:
                fr = flattening_rank(t, p, strategy)
                assert fr.rank == rank_certified(whole, strategy).rank, (t, p, strategy)
                assert fr.rank == oracle_rank(t, p, strategy), (t, p, strategy)
                assert fr.nnz == whole.nnz


SHAPES = [(2, 2, 2), (2, 3, 1), (3, 3, 1), (3, 2, 2), (3, 3, 3)]


@pytest.mark.parametrize("shape", SHAPES, ids=["".join(map(str, s)) for s in SHAPES])
@pytest.mark.parametrize("field,strategies", FIELDS, ids=["Q", "F7"])
def test_matmul_orbit_rank_matches_whole_and_brute_force(shape, field, strategies):
    t = matmul_tensor(*shape, field)
    for summand, _ in direct_summands(t):
        # More than the reversal: the orbits are not only mirror pairs.
        symmetries = index_symmetries(summand)
        assert len(symmetries) > 1
        assert all(automorphic(summand, g) for g in symmetries)
    check_every_p(t, strategies)


def weight_of(grading, j, s):
    wa, wb = grading
    return wb[j] + sum(wa.get(x, 0) for x in s)


@pytest.mark.parametrize("shape,p", [((2, 3, 1), 2), ((3, 3, 1), 3), ((3, 2, 2), 2)])
def test_each_generator_maps_a_weight_space_onto_one_of_equal_rank(shape, p):
    # The soundness argument, on the brute-force flattening: every weight
    # space and its image under a generator have equal ranks, and the
    # written orbits, counted by size, give the sum of all the spaces' ranks.
    t = matmul_tensor(*shape)
    grading, symmetries = mirror_grading(t), index_symmetries(t)
    cells, rows, cols = wedge_flattening(t, p)
    blocks = {}
    for r, q, v in cells:
        blocks.setdefault(weight_of(grading, *cols[q]), []).append((r, q, v))
    rank = {w: rank_certified(SparseMatrix(len(rows), len(cols), block, Q), ExactQ()).rank
            for w, block in blocks.items()}
    for pa, pb, _, _ in symmetries:
        for j, s in cols:
            image = (pb[j], tuple(sorted(pa.get(x, x) for x in s)))
            w, w_image = weight_of(grading, j, s), weight_of(grading, *image)
            assert rank.get(w, 0) == rank.get(w_image, 0)
    reps, _ = koszul_weight_spaces(t, p, grading, symmetries)
    assert sum(size for _, size in reps) == len({weight_of(grading, j, s) for j, s in cols})
    assert sum(size * rank.get(w, 0) for w, size in reps) == sum(rank.values())


def commuting_with_reversal(rng, d):
    """A random permutation of range(d) that commutes with x -> d-1-x: the
    pairs {x, d-1-x} permuted, each flipped or not."""
    pairs = [(x, d - 1 - x) for x in range(d // 2)]
    images = rng.sample(pairs, len(pairs))
    perm = {x: x for x in range(d)}
    for (x, y), (u, v) in zip(pairs, images):
        if rng.random() < 0.5:
            u, v = v, u
        perm[x], perm[y] = u, v
    return perm


def planted(rng, field, eps):
    """A sparse tensor with random values symmetric under the reversal rho
    (sign +1) and a random index permutation g commuting with it (sign
    eps): each seed cell's orbit under <rho, g> gets one value, times the
    sign of the group element reaching it, and is dropped when two elements
    reach one cell with opposite signs."""
    dims = (rng.randint(3, 6), rng.randint(2, 4), rng.randint(2, 4))
    g = [commuting_with_reversal(rng, d) for d in dims]
    moves = [(lambda x: tuple(d - 1 - y for d, y in zip(dims, x)), 1),
             (lambda x: tuple(pi[y] for pi, y in zip(g, x)), eps)]
    cells = {}
    for _ in range(rng.randint(2, 5)):
        seed = tuple(rng.randrange(d) for d in dims)
        if seed in cells:
            continue
        sign, todo, consistent = {seed: 1}, [seed], True
        while todo:
            x = todo.pop()
            for move, e in moves:
                y = move(x)
                if y not in sign:
                    sign[y] = sign[x] * e
                    todo.append(y)
                elif sign[y] != sign[x] * e:
                    consistent = False
        if consistent:
            v = rng.choice([1, 2, -3, 5]) if field.is_q else rng.randrange(1, field.p)
            cells.update((x, s * v) for x, s in sign.items())
    t = Tensor3(dims, [(*x, v) for x, v in cells.items()], field)
    return t, (*g, eps)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("field,strategies", FIELDS, ids=["Q", "F7"])
def test_planted_symmetry_rank_matches_whole_and_brute_force(seed, eps, field, strategies):
    rng = random.Random(100 * seed + 10 * eps + field.is_q)
    found_sign = False
    for _ in range(5):
        t, g = planted(rng, field, eps)
        if not t.nnz:
            continue
        assert automorphic(t, g)
        symmetries = index_symmetries(t)
        assert all(automorphic(t, s) for s in symmetries)
        found_sign |= any(s[3] == -1 for s in symmetries)
        check_every_p(t, strategies)
        assert bound_classical(t, strategies[0]).rank == max(
            oracle_rank(classical_tensor(t, mode), 0, strategies[0]) for mode in "ABC")
    if eps == -1:
        # A generating set of a group with a -1 character has a -1 generator.
        assert found_sign


@pytest.mark.parametrize("shape", SHAPES + [(2, 3, 2)], ids=lambda s: "".join(map(str, s)))
def test_bound_classical_acts_on_the_second_factor_alone(shape):
    # At p = 0 the flattening has one column per second-factor index, and
    # the generators permute those; the rank is the largest of the three
    # brute-force classical flattening ranks.
    t = matmul_tensor(*shape)
    cert = bound_classical(t)
    expected = []
    for mode in "ABC":
        moved = classical_tensor(t, mode)
        expected.append(oracle_rank(moved, 0, ExactQ()))
        fr = flattening_rank(moved, 0)
        assert fr.rank == expected[-1]
        assert fr.orbits < fr.orbit_weights
    assert cert.rank == max(expected)
    assert bound_classical(t, MultiPrime()).rank == max(expected)


def test_verifier_rejects_a_non_automorphism():
    # Swapping two first-factor indices alone moves entries off the support.
    t = matmul_tensor(2, 2, 1)
    swap = {0: 1, 1: 0, 2: 2, 3: 3}
    assert brlab.tensor._symmetry_sign(t, lambda x: x) == 1
    assert brlab.tensor._symmetry_sign(t, lambda x: (swap[x[0]], x[1], x[2])) is None
    symmetries = index_symmetries(t)
    assert symmetries and all(automorphic(t, g) for g in symmetries)


def test_mixed_signs_are_never_a_generator():
    # Colour refinement sees values up to sign, so the reversal, which
    # flips the sign of one orbit of entries and not the other, is a
    # candidate; the verifier rejects it.
    t = Tensor3((2, 2, 1), [(0, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 3), (1, 0, 0, -3)], Q)
    for g in index_symmetries(t):
        assert automorphic(t, g)
        assert g[0] != {0: 1, 1: 0}


@pytest.mark.parametrize("p", [0, 1])
def test_generator_with_no_weight_map_is_dropped(p):
    # The unit tensor e_i (x) e_i (x) e_i, n = 3, and the swap of 0 and 1 in
    # every factor.  Under the finest grading the swap pairs two weight
    # spaces; under the coarser grading wA = wB = (1, 0, 0), wC = 0, it
    # sends weight 0 to both 0 and 1, so sigma is no function and the swap
    # is dropped: fewer weights merge, and the rank is unchanged.
    t = Tensor3((3, 3, 3), [(i, i, i, 1) for i in range(3)], Q)
    swap = ({0: 1, 1: 0, 2: 2},) * 3 + (1,)
    assert automorphic(t, swap)
    whole = rank_certified(koszul_flattening(t, p).matrix, ExactQ()).rank

    def ranked(grading):
        reps, space = koszul_weight_spaces(t, p, grading, [swap])
        return rank_certified([(space(w), size) for w, size in reps], ExactQ()).rank, len(reps)

    coarse = ({0: 1, 1: 0, 2: 0}, {0: 1, 1: 0, 2: 0})
    fine_rank, fine_written = ranked(mirror_grading(t))
    coarse_rank, coarse_written = ranked(coarse)
    assert fine_rank == coarse_rank == whole
    reps, _ = koszul_weight_spaces(t, p, coarse, [swap])
    assert [size for _, size in reps] == [1] * coarse_written
    assert coarse_written == len(koszul_weight_spaces(t, p, coarse)[0])
    assert fine_written < len(koszul_weight_spaces(t, p, mirror_grading(t))[0])


def test_space_refuses_a_weight_outside_the_representatives():
    # Matmul (3,3,1) at p = 3: with its index symmetries, 88 of its weights
    # are not written.  The tables hold only the slices that written weights
    # read, so such a weight would come back with missing entries (weight
    # 47551 with none of its 2): space refuses it.
    t = matmul_tensor(3, 3, 1)
    grading = mirror_grading(t)
    every = {w for w, _ in koszul_weight_spaces(t, 3, grading)[0]}
    reps, space = koszul_weight_spaces(t, 3, grading, index_symmetries(t))
    others = every - {w for w, _ in reps}
    assert len(others) == 88 and 47551 in others
    for w in others:
        with pytest.raises(ValueError, match=f"weight {w} "):
            space(w)
    whole = koszul_flattening(t, 3).matrix
    assert sum(size * space(w).nnz for w, size in reps) == whole.nnz


def _cli(argv, seed):
    src = str(Path(brlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("BRLAB_PRIMES", None)
    res = subprocess.run([sys.executable, "-m", "brlab.cli", *argv], capture_output=True,
                         text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    doc.pop("timings_ms")
    return doc, re.sub(r"\d+(\.\d+)? ms", "_ ms", res.stderr)


@pytest.mark.parametrize("argv", [
    ["bound", "--method", "koszul", "--p", "5", "--m", "4", "--n", "4", "--l", "2", "--verbose"],
    ["bound", "--method", "koszul-restricted", "--m", "6", "--n", "6", "--l", "6", "--verbose"],
], ids=["koszul-442-p5", "restricted-666"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    first, second = _cli(argv, 0), _cli(argv, 1)
    assert first == second
    assert "orbits: " in first[1]
