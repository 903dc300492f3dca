"""Conical flatness on the pairs x1 <= x2, and flatness decided by the corepresentables.

The binary-meet identity of `classify.is_conically_flat` is symmetric under
(x1, p1) <-> (x2, p2), so the library scans only x2 >= x1; `tests/oracles.py`
keeps the scan over every (x1, x2).  The two are compared byte for byte, by
the repr of (verdict, witness, exactness flag), on every grid weight of
seeded categories with n <= 3 on four grids, and on seeded float categories
with n <= 4 over the product t-norm and two ordinal sums with a product block.
Flatness tests cotensor stability against every grid coweight below
`classify.EXHAUSTIVE_CAP` and against the corepresentables X(a, -) past it and in
float mode.  On five grids the reports below the cap are pinned byte for byte,
and the corepresentables give the verdict of every grid coweight.  On 600 seeded
float weights flat is conically flat and representable: four weights a sampled
coweight family called flat are pinned as not flat, and no other verdict moved.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

import oracles
import recat.cat as cat
import recat.classify as cl
import recat.presheaf as ps
import recat.tnorm as tn
import recat.values as vals
from recat import gen

GRIDS = {
    "luka_1_3": lambda: vals.unit_grid(3, tn.lukasiewicz),
    "godel_5": lambda: vals.grid_validate([0, F(1, 4), F(1, 2), F(3, 4), 1], tn.godel),
    "ordinal_upper": lambda: vals.grid_validate(
        [0, F(1, 2), F(3, 4), 1], tn.ordinal_sum((F(1, 2), 1, tn.LUKASIEWICZ))
    ),
    "ordinal_lower": lambda: vals.grid_validate(
        [0, F(1, 4), F(1, 2), 1], tn.ordinal_sum((0, F(1, 2), tn.LUKASIEWICZ))
    ),
}
FLOAT_TNORMS = ("product", "ordinal[(0,1/2,product)]", "ordinal[(1/2,1,product)]")
FLOAT_SEEDS = range(70)  # 210 float categories


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("n", range(4))
def test_every_grid_weight_matches_the_full_scan(name, n):
    results = []
    for seed in range(3):
        X = gen.random_category(random.Random(100 * n + seed), n, GRIDS[name]())
        for phi in ps.enumerate_weights(X):
            got = cl.is_conically_flat(phi)
            assert repr(got) == repr(oracles.is_conically_flat(phi)), (X.hom, phi.values)
            results.append(got)
    if n >= 2:  # on every grid some weight fails the identity at a pair x1 < x2
        assert any(not v and len(w) == 4 for v, w, _ in results)


def _float_category(rng, t, n):
    """A random float hom repaired by sup-(*) transitive closure."""
    hom = [[1.0 if i == j else round(rng.random(), 3) for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for y in range(n):
            for z in range(n):
                for x in range(n):
                    v = tn.conj(t, hom[y][z], hom[x][y])
                    if v > hom[x][z] + tn.TOL:
                        hom[x][z] = v
                        changed = True
    return cat.EnrichedCategory(t, tuple(tuple(row) for row in hom))


def _float_weights(rng, X):
    """A Yoneda weight and the least weight above a random vector with one entry 1."""
    vec = [round(rng.random(), 3) for _ in range(X.n)]
    vec[rng.randrange(X.n)] = 1.0
    return [ps.yoneda(X, rng.randrange(X.n)), ps.weight_closure(X, vec)]


@pytest.mark.parametrize("text", FLOAT_TNORMS)
def test_seeded_float_weights_match_the_full_scan(text):
    t = tn.parse_tnorm(text)
    results = []
    for seed in FLOAT_SEEDS:
        rng = random.Random(seed)
        X = _float_category(rng, t, 1 + seed % 4)
        for phi in _float_weights(rng, X):
            got = cl.is_conically_flat(phi)
            assert repr(got) == repr(oracles.is_conically_flat(phi)), (X.hom, phi.values)
            results.append(got)
    assert {v for v, _, _ in results} == {True, False}


FLAT_GRIDS = {
    "luka_1_6": lambda: vals.unit_grid(6, tn.lukasiewicz),
    "godel_5": GRIDS["godel_5"],
    "godel_thirds": lambda: vals.grid_validate([0, F(1, 3), F(2, 3), 1], tn.godel),
    "ordinal_upper": GRIDS["ordinal_upper"],
    "ordinal_lower": GRIDS["ordinal_lower"],
}
# sha256 of the classify reports of every grid weight below, one sorted-keys JSON
# line each, as printed before flatness past the cap moved to the corepresentables
REPORT_DIGESTS = {
    "godel_5": (269, "d3017053aea2b151c0d52e326c172cf7814d5d3e1c04b1002fc2f19d04c046c2"),
    "godel_thirds": (208, "d8652aa0f12ad2cf94e7272b140f588e2bcaa29b8624734ecd315454d5485928"),
    "luka_1_6": (1141, "4f6e85e6135b7d1dbd5096b82f0854950b1dccf6417d9e9bd3a86917ffedcc51"),
    "ordinal_lower": (222, "000123ed3e368cb9f600f7e92f022132f4ce94420117e351dfe9bee76d80c9ed"),
    "ordinal_upper": (218, "031f0bb37d91b1c62fe49df3066272857d1ae7497a601f640bf330edcde15139"),
}


def _cotensor_sides(phi, r, psi_values):
    """pairing(phi, r -> psi) and r -> pairing(phi, psi): flatness asks them equal."""
    X = phi.base
    psi = ps.Coweight(X, psi_values)
    shifted = tuple(X.imp(r, v) for v in psi_values)
    return ps.pairing(phi, ps._unchecked(ps.Coweight, X, shifted)), X.imp(r, ps.pairing(phi, psi))


@pytest.mark.parametrize("name", sorted(FLAT_GRIDS))
def test_the_corepresentables_decide_flatness_on_every_grid_weight(name, monkeypatch):
    """Below the cap flatness scans every grid coweight, and the reports are pinned; with
    the cap forced to 0 it scans the n corepresentables, and the verdict is the same."""
    count, digest = REPORT_DIGESTS[name]
    h = hashlib.sha256()
    verdicts = []
    for n in range(4):
        for seed in range(8):
            X = gen.random_category(random.Random(100 * n + seed), n, FLAT_GRIDS[name]())
            for phi in ps.enumerate_weights(X):
                rep = cl.classify(phi)
                h.update(json.dumps(rep.to_json(), sort_keys=True).encode() + b"\n")
                verdicts.append((phi, rep.flat))
    assert (len(verdicts), h.hexdigest()) == (count, digest)
    monkeypatch.setattr(cl, "EXHAUSTIVE_CAP", 0)
    seen = set()
    for phi, want in verdicts:
        flat, wit, exact = cl.is_flat(phi)
        assert (flat, exact) == (want, True), (phi.base.hom, phi.values)
        if not flat and wit[0] != "conically_flat":
            r, psi_values = wit
            assert psi_values in {ps.coyoneda(phi.base, a).values for a in range(phi.base.n)}
            lhs, rhs = _cotensor_sides(phi, r, psi_values)
            assert lhs != rhs
            seen.add("cotensor")
        seen.add(flat)
    # Łukasiewicz is Archimedean: there conical flatness already is representability
    assert seen == {True, False} | ({"cotensor"} if name != "luka_1_6" else set())


def _seeded_float_weights():
    """(t-norm, seed, index, weight) for the 600 seeded float weights."""
    for text in ("product", "lukasiewicz", "godel") + FLOAT_TNORMS[1:]:
        t = tn.parse_tnorm(text)
        for seed in range(60):
            rng = random.Random(seed)
            X = _float_category(rng, t, 1 + seed % 4)
            for i, phi in enumerate(_float_weights(rng, X)):
                yield text, seed, i, phi


# conically flat but not representable: a sampled coweight family called them flat
FALSE_FLATS = {(text, seed, 1) for text in ("godel", "ordinal[(0,1/2,product)]") for seed in (54, 59)}


@pytest.mark.parametrize("text, seed, i", sorted(FALSE_FLATS))
def test_four_conically_flat_float_weights_are_not_flat(text, seed, i):
    rng = random.Random(seed)
    X = _float_category(rng, tn.parse_tnorm(text), 1 + seed % 4)
    phi = _float_weights(rng, X)[i]
    rep = cl.classify(phi)
    assert rep.conically_flat and rep.representable is None
    assert not rep.flat and not rep.exhaustive
    r, psi_values = rep.witnesses["flat"]
    lhs, rhs = _cotensor_sides(phi, r, psi_values)
    assert abs(lhs - rhs) > tn.TOL


def test_no_other_float_flat_verdict_changes():
    """Flat is conically flat and representable on every seeded float weight, and with the
    four false flats read back as flat the verdicts are those of the sampled family."""
    bits = []
    for text, seed, i, phi in _seeded_float_weights():
        rep = cl.classify(phi)
        assert rep.flat == (rep.conically_flat and rep.representable is not None)
        bits.append("1" if rep.flat or (text, seed, i) in FALSE_FLATS else "0")
    assert len(bits) == 600
    want = "1181d47e8380df9895b0865afa1cf4292a5afb876e419e72c05ec50059f2c088"
    assert hashlib.sha256("".join(bits).encode()).hexdigest() == want
